"""The eight SPECint95-like benchmark profiles.

The paper evaluates on SPECint95 (compress, gcc, perl, go, m88ksim,
xlisp, vortex, ijpeg).  Each profile below is a *statistical stand-in*:
a branch-site population whose mix of biases, correlations, loops and
patterns is chosen so that the predictability ordering and rough
accuracy levels of the suite match the paper's Table 1 (vortex and
m88ksim easiest, go hardest, the rest near 90% under gshare), and so
that each benchmark stresses a different corner of the
predictor/estimator design space.

Two properties of real integer code are modelled deliberately because
the confidence-estimation results depend on them:

* **Bias skew** -- the median branch is right ~95% of the time; a small
  minority of weakly biased branches produces most mispredictions.
  Site biases come from an easy/medium/hard mixture, not a uniform
  draw.
* **Locality of difficulty** -- hard branches concentrate in hot
  regions (the paper's misprediction *clustering*, §4.1).  Each
  profile therefore lays out a mostly-stable region of easy sites and
  a contiguous "noisy" region holding the weakly biased and correlated
  sites.  This also keeps global-history contexts repeatable enough for
  a 4096-entry gshare to train, as in real code.

Hard-but-learnable branches are generated as *correlated clusters*
(:func:`_correlated_cluster`): a ~50/50 leader plus followers testing
related conditions on the same datum, which global-history predictors
exploit and bimodal predictors cannot -- the actual source of gshare's
advantage on integer code.

All profiles are deterministic: site parameters are drawn from a
benchmark-specific seeded RNG, so every run of the suite sees the same
programs.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

from .generator import GuardSpec, WorkloadProfile
from .sites import (
    MAX_FIELD_SHIFT,
    MIN_FIELD_SHIFT,
    AlternatingSite,
    BiasedSite,
    BranchSite,
    CorrelatedSite,
    LoopSite,
    PatternSite,
    SwitchSite,
    WalkSite,
)

#: Benchmarks in the order the paper lists them.
SUITE: Tuple[str, ...] = (
    "compress",
    "gcc",
    "perl",
    "go",
    "m88ksim",
    "xlisp",
    "vortex",
    "jpeg",
)

#: Bias ranges of the three site difficulty classes.
EASY_BIAS = (0.94, 0.998)
MEDIUM_BIAS = (0.82, 0.94)
HARD_BIAS = (0.55, 0.78)


def _threshold(bias: float) -> int:
    """Convert a taken-bias in [0,1] to a 10-bit field threshold."""
    return max(0, min(1024, round(bias * 1024)))


def _shift(rng: random.Random) -> int:
    return rng.randint(MIN_FIELD_SHIFT, MAX_FIELD_SHIFT)


def _biased(rng: random.Random, low: float, high: float, **kwargs) -> BiasedSite:
    bias = rng.uniform(low, high)
    # branches are taken- or not-taken-biased with equal probability
    if rng.random() < 0.5:
        bias = 1.0 - bias
    return BiasedSite(threshold=_threshold(bias), field_shift=_shift(rng), **kwargs)


def _easy(rng: random.Random, count: int) -> List[BranchSite]:
    return [_biased(rng, *EASY_BIAS) for __ in range(count)]


def _medium(rng: random.Random, count: int) -> List[BranchSite]:
    return [_biased(rng, *MEDIUM_BIAS) for __ in range(count)]


def _hard(rng: random.Random, count: int) -> List[BranchSite]:
    return [_biased(rng, *HARD_BIAS) for __ in range(count)]


def _chaotic(
    rng: random.Random, count: int, low: float = 0.52, high: float = 0.70
) -> List[BranchSite]:
    # chaotic sites draw fresh LCG entropy so even global history
    # carries no information about them
    return [_biased(rng, low, high, advance_lcg=True) for __ in range(count)]


def _correlated_cluster(
    rng: random.Random, followers: int = 2, exact_fraction: float = 0.4
) -> List[BranchSite]:
    """A weakly biased leader plus followers on the same LCG field.

    The leader is close to 50/50 (a genuine data-dependent decision);
    the followers test related conditions on the same datum.  A
    global-history predictor sees the leader's direction in its history
    register and predicts the followers well; a bimodal or purely
    local-history predictor only sees the followers' weak marginal
    bias.  With probability ``exact_fraction`` a follower repeats the
    leader's threshold exactly (fully implied outcome); otherwise its
    threshold brackets the leader's (partially implied).
    """
    shift = _shift(rng)
    lead_threshold = rng.randint(320, 704)  # leader bias ~0.31-0.69
    sites: List[BranchSite] = [
        BiasedSite(threshold=lead_threshold, field_shift=shift)
    ]
    for __ in range(followers):
        if rng.random() < exact_fraction:
            follow_threshold = lead_threshold
        else:
            follow_threshold = min(
                974, max(50, lead_threshold + rng.randint(-220, 220))
            )
        sites.append(
            CorrelatedSite(threshold=follow_threshold, field_shift=shift)
        )
    return sites


def _clusters(
    rng: random.Random, count: int, followers: int = 2, exact_fraction: float = 0.4
) -> List[BranchSite]:
    sites: List[BranchSite] = []
    for __ in range(count):
        sites.extend(
            _correlated_cluster(rng, followers=followers, exact_fraction=exact_fraction)
        )
    return sites


def _pattern(rng: random.Random, min_len: int = 3, max_len: int = 8) -> PatternSite:
    length = rng.randint(min_len, max_len)
    bits = tuple(rng.randint(0, 1) for __ in range(length))
    if all(bit == bits[0] for bit in bits):  # avoid degenerate all-same
        bits = bits[:-1] + (1 - bits[0],)
    return PatternSite(pattern=bits)


def _patterns(rng: random.Random, count: int, min_len: int = 3, max_len: int = 8) -> List[BranchSite]:
    return [_pattern(rng, min_len, max_len) for __ in range(count)]


def _arrange(
    rng: random.Random,
    stable: Sequence[BranchSite],
    regular: Sequence[BranchSite],
    noisy: Sequence[BranchSite],
    filler_per_noisy: int = 2,
) -> List[BranchSite]:
    """Lay out a profile: stable region with regular sites sprinkled in,
    then the noisy (hot) region -- the locality-of-difficulty structure
    described in the module docstring.

    Within the noisy region each noisy site is followed by
    ``filler_per_noisy`` easy sites.  Real hot regions look like this
    too (error checks between the hard decisions), and it bounds the
    number of entropy bits a 12-branch global-history window can
    accumulate, so history-indexed tables still train.  Correlated
    clusters are kept adjacent: filler goes after CorrelatedSite
    followers, never between a leader and its followers.
    """
    stable = list(stable)
    regular = list(regular)
    noisy = list(noisy)
    rng.shuffle(stable)
    rng.shuffle(regular)
    laid_out = list(stable)
    for site in regular:
        laid_out.insert(rng.randrange(len(laid_out) + 1), site)
    for index, site in enumerate(noisy):
        laid_out.append(site)
        next_is_follower = index + 1 < len(noisy) and isinstance(
            noisy[index + 1], CorrelatedSite
        )
        if not next_is_follower:
            laid_out.extend(_easy(rng, filler_per_noisy))
    return laid_out


def _sparse_guards(
    rng: random.Random,
    site_count: int,
    how_many: int,
    low: float = 0.80,
    high: float = 0.96,
) -> Dict[int, GuardSpec]:
    """Guards that *rarely* skip their block (high execute probability),
    so the per-iteration path stays mostly repeatable."""
    how_many = min(how_many, site_count)
    return {
        index: GuardSpec(
            field_shift=_shift(rng), threshold=_threshold(rng.uniform(low, high))
        )
        for index in rng.sample(range(site_count), how_many)
    }


def _compress() -> WorkloadProfile:
    rng = random.Random(0xC0301)
    stable = _easy(rng, 15)
    regular = [LoopSite(trip_min=6, trip_max=6), LoopSite(trip_min=3, trip_max=11)]
    noisy = (
        _medium(rng, 4)
        + _hard(rng, 1)
        + _chaotic(rng, 1)
        + _clusters(rng, 3, followers=2)
        + [
            WalkSite(array_words=1536, stride=7, threshold=_threshold(0.85)),
            WalkSite(array_words=2048, stride=13, threshold=_threshold(0.70)),
        ]
    )
    sites = _arrange(rng, stable, regular, noisy)
    guards = _sparse_guards(rng, len(stable), 2)
    return WorkloadProfile(
        name="compress",
        description="LZW-style coder: table-hit branches, data-driven walks",
        sites=tuple(sites),
        guards=guards,
        data_seed=101,
        default_iterations=800,
    )


def _gcc() -> WorkloadProfile:
    rng = random.Random(0x6CC)
    stable = _easy(rng, 72)
    regular = _patterns(rng, 4) + [
        LoopSite(trip_min=4, trip_max=4),
        LoopSite(trip_min=2, trip_max=9),
        LoopSite(trip_min=3, trip_max=3),
        LoopSite(trip_min=2, trip_max=7),
        SwitchSite(cases=4, field_shift=_shift(rng)),  # AST-node dispatch
    ]
    noisy = (
        _medium(rng, 14)
        + _hard(rng, 3)
        + _chaotic(rng, 3)
        + _clusters(rng, 12, followers=2)
    )
    sites = _arrange(rng, stable, regular, noisy)
    guards = _sparse_guards(rng, len(stable), 8)
    return WorkloadProfile(
        name="gcc",
        description="compiler: very many moderately biased static branches",
        sites=tuple(sites),
        guards=guards,
        subroutine_group=10,
        data_seed=102,
        default_iterations=500,
    )


def _perl() -> WorkloadProfile:
    rng = random.Random(0x9E21)
    stable = _easy(rng, 26)
    regular = _patterns(rng, 6, 2, 6) + [
        AlternatingSite(),
        SwitchSite(cases=8, field_shift=_shift(rng)),  # opcode dispatch
    ]
    noisy = (
        _medium(rng, 6)
        + _hard(rng, 1)
        + _chaotic(rng, 1)
        + _clusters(rng, 5, followers=1)
    )
    sites = _arrange(rng, stable, regular, noisy)
    guards = _sparse_guards(rng, len(stable), 3)
    return WorkloadProfile(
        name="perl",
        description="interpreter: dispatch patterns plus biased opcode checks",
        sites=tuple(sites),
        guards=guards,
        subroutine_group=8,
        data_seed=103,
        default_iterations=600,
    )


def _go() -> WorkloadProfile:
    rng = random.Random(0x60)
    stable = _easy(rng, 24)
    regular = [LoopSite(trip_min=2, trip_max=7), LoopSite(trip_min=3, trip_max=3)]
    noisy = (
        _medium(rng, 8)
        + _hard(rng, 6)
        + _chaotic(rng, 16, low=0.50, high=0.60)
        + _clusters(rng, 7, followers=1, exact_fraction=0.25)
        + [
            WalkSite(array_words=4096, stride=17, threshold=_threshold(0.5)),
            WalkSite(array_words=3072, stride=5, threshold=_threshold(0.62)),
        ]
    )
    sites = _arrange(rng, stable, regular, noisy)
    guards = _sparse_guards(rng, len(stable), 6, low=0.70, high=0.90)
    return WorkloadProfile(
        name="go",
        description="game tree evaluation: chaotic, weakly biased branches",
        sites=tuple(sites),
        guards=guards,
        data_seed=104,
        default_iterations=420,
    )


def _m88ksim() -> WorkloadProfile:
    rng = random.Random(0x88)
    stable = _easy(rng, 31)
    regular = (
        [LoopSite(trip_min=4, trip_max=4) for __ in range(5)]
        + _patterns(rng, 3, 2, 4)
        + [AlternatingSite()]
    )
    noisy = _medium(rng, 3) + _hard(rng, 1) + _clusters(rng, 2, followers=2, exact_fraction=0.6)
    sites = _arrange(rng, stable, regular, noisy)
    return WorkloadProfile(
        name="m88ksim",
        description="CPU simulator: highly regular decode/dispatch branches",
        sites=tuple(sites),
        data_seed=105,
        default_iterations=700,
    )


def _xlisp() -> WorkloadProfile:
    rng = random.Random(0x715)
    stable = _easy(rng, 27)
    regular = _patterns(rng, 4, 2, 5) + [
        LoopSite(trip_min=2, trip_max=6),
        LoopSite(trip_min=3, trip_max=3),
    ]
    noisy = (
        _medium(rng, 7)
        + _hard(rng, 1)
        + _chaotic(rng, 1)
        + _clusters(rng, 7, followers=1, exact_fraction=0.5)
    )
    sites = _arrange(rng, stable, regular, noisy)
    guards = _sparse_guards(rng, len(stable), 3)
    return WorkloadProfile(
        name="xlisp",
        description="lisp interpreter: type-check chains, recursive patterns",
        sites=tuple(sites),
        guards=guards,
        subroutine_group=9,
        data_seed=106,
        default_iterations=600,
    )


def _vortex() -> WorkloadProfile:
    rng = random.Random(0x0DB)
    stable = _easy(rng, 51)
    regular = [LoopSite(trip_min=5, trip_max=5) for __ in range(6)]
    noisy = _medium(rng, 4) + _clusters(rng, 2, followers=1, exact_fraction=0.7)
    sites = _arrange(rng, stable, regular, noisy)
    return WorkloadProfile(
        name="vortex",
        description="OO database: validation branches that almost never fire",
        sites=tuple(sites),
        subroutine_group=12,
        data_seed=107,
        default_iterations=520,
    )


def _jpeg() -> WorkloadProfile:
    rng = random.Random(0x396)
    stable = _easy(rng, 16)
    regular = [LoopSite(trip_min=8, trip_max=8) for __ in range(6)] + [
        LoopSite(trip_min=3, trip_max=12) for __ in range(4)
    ]
    noisy = (
        _medium(rng, 4)
        + _hard(rng, 1)
        + _chaotic(rng, 1)
        + _clusters(rng, 2, followers=1)
        + [
            WalkSite(array_words=2560, stride=11, threshold=_threshold(0.80)),
            WalkSite(array_words=1024, stride=3, threshold=_threshold(0.55)),
        ]
    )
    sites = _arrange(rng, stable, regular, noisy)
    return WorkloadProfile(
        name="jpeg",
        description="image coder: long counted loops over pixel data",
        sites=tuple(sites),
        data_seed=108,
        default_iterations=520,
    )


_FACTORIES: Dict[str, Callable[[], WorkloadProfile]] = {
    "compress": _compress,
    "gcc": _gcc,
    "perl": _perl,
    "go": _go,
    "m88ksim": _m88ksim,
    "xlisp": _xlisp,
    "vortex": _vortex,
    "jpeg": _jpeg,
}


@lru_cache(maxsize=None)
def get_profile(name: str) -> WorkloadProfile:
    """Return the named benchmark profile (see :data:`SUITE`).

    Each profile is built once per process and every caller shares it,
    so never mutate one (its ``guards`` dict included): derive a
    variant with :func:`dataclasses.replace` instead.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(SUITE)}"
        ) from None
    return factory()


def all_profiles() -> List[WorkloadProfile]:
    """All eight benchmark profiles in paper order."""
    return [get_profile(name) for name in SUITE]
