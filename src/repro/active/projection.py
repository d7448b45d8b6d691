"""2-D projections for the data explorer: PCA, exact t-SNE, and a spectral
(UMAP-style) graph embedding."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


def pca_2d(x: np.ndarray) -> np.ndarray:
    """First two principal components (also the t-SNE initialisation)."""
    x = np.asarray(x, dtype=np.float64)
    centred = x - x.mean(axis=0)
    # SVD on the centred data; components = right singular vectors.
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    return (centred @ vt[:2].T).astype(np.float32)


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = (x**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _binary_search_perplexity(d2_row: np.ndarray, perplexity: float) -> np.ndarray:
    """Find the Gaussian bandwidth matching the target perplexity."""
    target = np.log(perplexity)
    beta_lo, beta_hi, beta = 1e-10, 1e10, 1.0
    for _ in range(50):
        p = np.exp(-d2_row * beta)
        p_sum = p.sum()
        if p_sum <= 0:
            p_sum = 1e-12
        h = np.log(p_sum) + beta * (d2_row * p).sum() / p_sum
        if abs(h - target) < 1e-4:
            break
        if h > target:
            beta_lo = beta
            beta = beta * 2 if beta_hi >= 1e10 else (beta + beta_hi) / 2
        else:
            beta_hi = beta
            beta = beta / 2 if beta_lo <= 1e-10 else (beta + beta_lo) / 2
    p = np.exp(-d2_row * beta)
    return p / max(p.sum(), 1e-12)


def tsne_2d(
    x: np.ndarray,
    perplexity: float = 20.0,
    iterations: int = 300,
    learning_rate: float = 100.0,
    seed: int = 0,
) -> np.ndarray:
    """Exact t-SNE (van der Maaten & Hinton, 2008) for explorer-scale N.

    O(N^2) memory/step — fine for the few-thousand-sample datasets the data
    explorer visualises.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 5:
        return pca_2d(x)
    perplexity = min(perplexity, (n - 1) / 3.0)

    d2 = _pairwise_sq_dists(x)
    p_cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        p_row = _binary_search_perplexity(row, perplexity)
        p_cond[i, np.arange(n) != i] = p_row
    p = (p_cond + p_cond.T) / (2.0 * n)
    p = np.maximum(p, 1e-12)

    rng = ensure_rng(seed)
    y = pca_2d(x).astype(np.float64)
    y = y / (np.abs(y).max() or 1.0) * 1e-2
    y += rng.normal(0, 1e-4, size=y.shape)
    gains = np.ones_like(y)
    velocity = np.zeros_like(y)

    p_early = p * 4.0  # early exaggeration
    for it in range(iterations):
        pij = p_early if it < 50 else p
        d2y = _pairwise_sq_dists(y)
        num = 1.0 / (1.0 + d2y)
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), 1e-12)
        pq = (pij - q) * num
        grad = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)
        momentum = 0.5 if it < 100 else 0.8
        sign_agree = np.sign(grad) == np.sign(velocity)
        gains = np.where(sign_agree, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y.astype(np.float32)


def spectral_2d(x: np.ndarray, n_neighbors: int = 10, seed: int = 0) -> np.ndarray:
    """UMAP-style spectral embedding: k-NN graph -> normalised Laplacian ->
    bottom non-trivial eigenvectors."""
    import scipy.linalg  # at the point of use: see repro.dsp.mfcc
    import scipy.sparse
    import scipy.sparse.linalg

    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 5:
        return pca_2d(x)
    k = min(n_neighbors, n - 1)
    d2 = _pairwise_sq_dists(x)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1)[:, :k]
    sigma = np.sqrt(np.maximum(d2[np.arange(n)[:, None], neighbors][:, -1], 1e-12))

    rows = np.repeat(np.arange(n), k)
    cols = neighbors.reshape(-1)
    weights = np.exp(-d2[rows, cols] / (sigma[rows] * sigma[cols] + 1e-12))
    adj = scipy.sparse.coo_matrix((weights, (rows, cols)), shape=(n, n))
    adj = adj.maximum(adj.T).tocsr()  # symmetrise (fuzzy union)

    deg = np.asarray(adj.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    lap = scipy.sparse.identity(n) - scipy.sparse.diags(d_inv_sqrt) @ adj @ scipy.sparse.diags(d_inv_sqrt)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(lap, k=3, sigma=0, which="LM")
    except Exception:
        dense_vals, dense_vecs = scipy.linalg.eigh(lap.toarray())
        vals, vecs = dense_vals[:3], dense_vecs[:, :3]
    order = np.argsort(vals)
    embedding = vecs[:, order[1:3]]  # drop the trivial constant eigenvector
    return (embedding / (np.abs(embedding).max() or 1.0)).astype(np.float32)
