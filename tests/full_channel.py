"""Fully materialized uplink fading, kept as a test oracle.

The simulator materializes only each cluster's summed path to its own
surface and draws every foreign-surface reflection and own-cluster
residual from its exact conditional law (see airpfl.channel). These
helpers draw every device-to-surface path and contract it element by
element instead.
"""

import numpy as np

from airpfl.channel import ChannelSet


def draw_full(rng, T, M, K, N):
    """Every surface-to-PS path (T, M, N, M) and device-to-surface path (T, M, K, N)."""
    hp = (rng.standard_normal((T, M, N, M)) + 1j * rng.standard_normal((T, M, N, M))) / np.sqrt(2)
    hd = (rng.standard_normal((T, M, K, N)) + 1j * rng.standard_normal((T, M, K, N))) / np.sqrt(2)
    return hp, hd


def reflected(hp, hd, phases):
    """Re{hp[t, i, :, m]^H diag(e^{j phases[t, i]}) hd[t, i, k]}, shape (T, M, M, K)."""
    return np.einsum("tinm,tin,tikn->timk", np.conj(hp), np.exp(1j * phases), hd,
                     optimize=True).real


def aligned_phases(hp, hd, cluster_of):
    """Each surface rotates its cluster's summed paths onto its own antenna, shape (T, M, N)."""
    cluster_of = np.asarray(cluster_of)
    theta = np.empty(hp.shape[:3])
    for m in range(hp.shape[1]):
        summed = hd[:, m, cluster_of == m, :].sum(axis=1)
        theta[:, m, :] = np.angle(hp[:, m, :, m]) - np.angle(summed)
    return theta


def channel_set(hp, hd, cluster_of, phases):
    """The ChannelSet on which the gain kernels reproduce the full channel under phases.

    cluster_sums are each cluster's summed own rows of hd. The drawn
    terms are the full channel's reflections under phases, with each
    own device's path replaced by its residual about the cluster mean,
    so the kernels add back the cluster-mean term.
    """
    cluster_of = np.asarray(cluster_of, dtype=int)
    sums = np.zeros(hp.shape[:3], dtype=complex)
    centred = hd.copy()
    for i in range(hp.shape[1]):
        own = cluster_of == i
        if own.any():
            sums[:, i] = hd[:, i, own].sum(axis=1)
            centred[:, i, own] -= sums[:, i, None] / own.sum()
    return ChannelSet(
        ris_to_ps=hp,
        cluster_sums=sums,
        drawn_terms=reflected(hp, centred, phases),
        cluster_of=cluster_of,
    )
