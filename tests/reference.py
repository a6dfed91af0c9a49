"""Oracles the tests check the package against, written from the
definitions with numpy and the standard library only, so they share no
code with ``ghnpost``."""

import numpy as np


def reference_offdiagonal(w):
    """The K x K channel-correlation matrix of a rank-2/4 tensor, from its
    definition in one piece, and its strict upper triangle gathered
    row-major with ``triu_indices``: the values whose moments and
    histogram the package folds from Gram panels.  Dead (constant)
    channels correlate 0, entries within 64 eps of +-1 snap to it, and
    the diagonal is 1."""
    k = w.shape[0]
    x = w.reshape(k, -1).astype(np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(xc * xc, axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    r = (xc @ xc.T) / np.outer(safe, safe)
    dead = norms == 0.0
    r[dead, :] = 0.0
    r[:, dead] = 0.0
    r = 0.5 * (r + r.T)
    snap = 64.0 * np.finfo(np.float64).eps
    r[np.abs(r - 1.0) <= snap] = 1.0
    r[np.abs(r + 1.0) <= snap] = -1.0
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return r, r[np.triu_indices(k, k=1)]


def matricize(w):
    """The K x CHW matrix of a rank-2/4 tensor, transposed where K < CHW."""
    m = w.reshape(len(w), -1)
    return m.T if m.shape[0] < m.shape[1] else m


def reference_pca(x):
    """The n x 2 projection of the n x d samples ``x`` onto their top two
    principal directions, from the SVD of the centred samples rather than
    an eigensolver: the first two right singular vectors, each with its
    largest-magnitude entry positive, so that the directions are
    orthonormal and their signs fixed."""
    xc = np.asarray(x, dtype=np.float64) - np.mean(x, axis=0)
    vt = np.linalg.svd(xc, full_matrices=False)[2][:2]
    vt *= np.sign(vt[[0, 1], np.argmax(np.abs(vt), axis=1)])[:, np.newaxis]
    return xc @ vt.T
