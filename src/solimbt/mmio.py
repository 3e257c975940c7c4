"""Model bundles on disk: Matrix Market matrices plus a JSON header.

A bundle directory holds ``M.mtx``, ``E.mtx``, ``K.mtx`` (coordinate format,
nonzero entries in row-major order), ``B.mtx``, ``Cp.mtx``, ``Cv.mtx`` (array
format) and ``system.json`` with ``{n, m, p, name}``.  Values are written with
17 significant digits so a write/read cycle reproduces every float
bit-exactly.  ``M``, ``E`` and ``K`` load dense when each stored pattern is
at least half full, as a reduced model's is, so its sweeps and simulations
take the dense paths; otherwise they load as ``scipy.sparse.csc_array``, so
shifted solves with a large model stay sparse.
"""

import json
import os

import numpy as np
import scipy.io
import scipy.sparse

from .errors import DimensionMismatch, IoError
from .system import make_second_order

_SPARSE = ("M", "E", "K")
_DENSE = ("B", "Cp", "Cv")
# least share of stored entries in every one of M, E and K for a bundle to
# load them dense
DENSE_FILL_MIN = 0.5


def save_bundle(directory, sys, name="model"):
    """Write a second-order system as a model bundle.

    Deterministic: identical systems produce identical bytes, whether
    ``M``, ``E`` and ``K`` are dense or sparse.
    """
    try:
        os.makedirs(directory, exist_ok=True)
        for key, A in (("M", sys.M), ("E", sys.E), ("K", sys.K)):
            A = scipy.sparse.csr_array(A, copy=True)
            A.sum_duplicates()  # canonical: nonzeros in row-major order
            A.eliminate_zeros()
            scipy.io.mmwrite(os.path.join(directory, key + ".mtx"),
                             A.tocoo(), precision=17)
        for key, A in (("B", sys.B_u), ("Cp", sys.C_p), ("Cv", sys.C_v)):
            scipy.io.mmwrite(os.path.join(directory, key + ".mtx"),
                             np.asarray(A), precision=17)
        header = {"m": sys.m, "n": sys.n, "name": name, "p": sys.p}
        with open(os.path.join(directory, "system.json"), "w") as fh:
            json.dump(header, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write bundle to {directory}: {exc}") from exc


def load_bundle(directory):
    """Read a model bundle back; returns ``(system, name)``.

    ``M``, ``E`` and ``K`` in coordinate format (as written by
    :func:`save_bundle`) come back as dense arrays when each stores at least
    ``DENSE_FILL_MIN`` of its entries, and as ``scipy.sparse.csc_array``
    otherwise.

    Raises
    ------
    IoError
        On missing or unreadable files.
    DimensionMismatch
        If the matrices disagree with the JSON header.
    """
    try:
        with open(os.path.join(directory, "system.json")) as fh:
            header = json.load(fh)
        mats = {}
        for key in _SPARSE + _DENSE:
            A = scipy.io.mmread(os.path.join(directory, key + ".mtx"))
            if key in _DENSE and scipy.sparse.issparse(A):
                A = A.toarray()
            mats[key] = A
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot read bundle from {directory}: {exc}") from exc
    if all(scipy.sparse.issparse(mats[k])
           and mats[k].nnz >= DENSE_FILL_MIN * np.prod(mats[k].shape)
           for k in _SPARSE):
        mats.update((k, mats[k].toarray()) for k in _SPARSE)
    sys = make_second_order(mats["M"], mats["E"], mats["K"],
                            mats["B"], mats["Cp"], mats["Cv"])
    for key, val in (("n", sys.n), ("m", sys.m), ("p", sys.p)):
        if header.get(key) != val:
            raise DimensionMismatch(
                f"bundle header {key}={header.get(key)} but matrices give {val}")
    return sys, header.get("name", "model")
