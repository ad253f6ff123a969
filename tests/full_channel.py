"""Fully materialized uplink fading, kept as a test oracle.

The simulator materializes only each surface's path to its own antenna
and each cluster's summed path to its own surface, and draws every
foreign-surface reflection, own-cluster residual and foreign-antenna
statistic from its exact conditional law (see airpfl.channel). These
helpers draw every path and contract it element by element instead.
"""

import numpy as np

from airpfl.channel import ChannelSet, PartialDraw
from airpfl.ris import configure_aligned


def aligned(draw):
    """The aligned design as the one configuration of a draw (a `phases` argument)."""
    return [configure_aligned(draw)]


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


def summed_terms(hp, sums, phasors):
    """Re{hp[t, i, :, m]^H diag(conj(phasors[t, i])) sums[t, i]}, shape (T, M, M)."""
    return np.einsum("tinm,tin,tin->tim", np.conj(hp), np.conj(phasors), sums,
                     optimize=True).real


def channel_set(hp, hd, cluster_of, phases):
    """The ChannelSet on which the gain kernels reproduce the full channel.

    phases is called, as by the sampler, on the PartialDraw of the own
    antenna paths and the cluster sums, the summed own rows of hd, and
    returns the phasors of each configuration. summed_terms holds each
    configuration's cluster-sum terms, computed from the full hp. The
    drawn terms are the full channel's reflections under the first
    configuration, with each own device's path replaced by its residual
    about the cluster mean, so the kernels add back the cluster-mean
    term. Both carry a leading size axis of length 1.
    """
    cluster_of = np.asarray(cluster_of, dtype=int)
    sums = np.zeros(hp.shape[:3], dtype=complex)
    centred = hd.copy()
    for i in range(hp.shape[1]):
        own = cluster_of == i
        if own.any():
            sums[:, i] = hd[:, i, own].sum(axis=1)
            centred[:, i, own] -= sums[:, i, None] / own.sum()
    own_paths = np.diagonal(hp, axis1=1, axis2=3).swapaxes(1, 2).copy()
    configs = list(phases(PartialDraw(own_paths, sums)))
    return ChannelSet(
        own_paths=own_paths,
        cluster_sums=sums,
        summed_terms=np.stack([summed_terms(hp, sums, p) for p in configs])[None],
        drawn_terms=reflected(hp, centred, -np.angle(configs[0]))[None],
        cluster_of=cluster_of,
    )
