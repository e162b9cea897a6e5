"""Every memo of the package has a declared lifetime.

An ``functools.lru_cache`` memo is either emptied by ``wedge.clear_caches``,
the one lifetime of the images of basis vectors, or kept for the whole
process and named in PER_PROCESS.  A new memo that is neither fails here, so
an image memo cannot outlive the images it was built from; the table of
shared LaurentPoly values (``laurent._interned``) is emptied with the images
that hold them.  A memo kept on
the object it is built from, named in ON_ITS_OBJECT, lives with that object:
C = D^-1 is solved once per D and lives with its D, so that clearing
``canonical_upper`` drops it too.
"""

import gc
import importlib
import pkgutil
import weakref

import fockcanon
from fockcanon import canonical, fock, wedge
from fockcanon.laurent import LaurentPoly

PER_PROCESS = {
    "fockcanon.partitions.revlex_order",
    "fockcanon.canonical.blocks",
    "fockcanon.canonical.canonical_upper",
    "fockcanon.canonical.canonical_lower",
    "fockcanon.cli.build_parser",
    "fockcanon._straighten_py._exchange",
    "fockcanon.symfunc._mn",
}
ON_ITS_OBJECT = {
    "fockcanon.canonical.adjoint_matrix": "lives with its D",
}


def _memos() -> dict:
    """Every lru_cache wrapper at module level in the package, by the
    qualified name of the module that defines it."""
    found = {}
    for info in pkgutil.iter_modules(fockcanon.__path__, "fockcanon."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = obj
    return found


def test_every_memo_is_cleared_or_per_process():
    memos = _memos()
    assert PER_PROCESS <= memos.keys()
    cleared = {name: memo for name, memo in memos.items() if name not in PER_PROCESS}
    assert {"fockcanon.wedge._bar_image", "fockcanon.laurent._interned"} <= cleared.keys()
    wedge.clear_caches()
    try:
        canonical.a_matrix(2, 4)
        v = fock.FockVector({(2, 1): LaurentPoly.monomial(1)})
        fock.b_action(-1, v, 2)
        fock.v_op(1, v, 2)
        filled = {name: memo.cache_info().currsize for name, memo in cleared.items()}
        assert all(filled.values()), filled
        wedge.clear_caches()
        left = {name: memo.cache_info().currsize for name, memo in cleared.items()}
        assert left == dict.fromkeys(cleared, 0)
    finally:
        wedge.clear_caches()


def test_c_lives_with_its_d():
    assert ON_ITS_OBJECT.keys().isdisjoint(_memos())
    d = canonical.canonical_upper(2, 6)
    c = canonical.adjoint_matrix(d)
    assert canonical.adjoint_matrix(d) is c  # solved once per D
    c_ref = weakref.ref(c)
    del d, c
    canonical.canonical_upper.cache_clear()
    gc.collect()
    assert c_ref() is None  # a C memo at module level would still hold it
