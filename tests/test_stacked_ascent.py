"""The lock-step ascent against one event at a time.

The moments of a stack of parameter vectors must carry, item by item, the
bits of one call per vector, and the batched event fits the bits of the
one-at-a-time damped Newton ascent that ran before fits were batched,
copied here as the reference.  A NumPy or BLAS build that ran stacked
products through another kernel than single ones would fail here first.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from projgraph import (
    Family,
    dyad_count,
    edge_count,
    graph_from_index,
    model_spec,
    register_family,
    unregister_family,
)
from projgraph.exact import (
    _classes,
    _completion_counts,
    _joint_counts,
    _moments,
    _stats_table,
)
from projgraph.inference import (
    NEWTON_MAX_ITERATIONS,
    NEWTON_TOLERANCE,
    _RECESSION_VALUE_TOL,
    _ROUNDING,
    _SATURATION_TOL,
    _VALUE_SLACK,
    _FitCache,
    _climb,
    _directions,
    _event_fit,
    _hull_facets,
    _log_ratio_parts,
    _on_facets,
    _statistic_facets,
)
from projgraph.models import ParamVector, natural_params

EDGE_TRI = model_spec("EdgeTriangle")


@pytest.fixture(scope="module")
def probes():
    """A one-statistic family without the closed form, and the three
    non-integer statistics of test_histogram_engine's FloatStatsProbe, both
    built from the EdgeTriangle table."""

    def float_stats(table):
        m, t = table[:, 0].astype(np.float64), table[:, 1].astype(np.float64)
        return np.column_stack([m / 3.0, np.sqrt(1.0 + t), 0.1 * m * t - 0.5])

    families = [
        Family(name="EdgeCountProbe", stat_dim=1, offset_edges=False,
               stats=lambda g: (float(edge_count(g)),),
               bulk_stats=lambda n: EDGE_TRI.bulk_stats(n)[:, :1].astype(np.float64)),
        Family(name="StackedFloatProbe", stat_dim=3, offset_edges=False,
               stats=lambda g: tuple(float_stats(np.array([EDGE_TRI.stats(g)]))[0]),
               bulk_stats=lambda n: float_stats(EDGE_TRI.bulk_stats(n))),
    ]
    for family in families:
        register_family(family)
    yield {family.name: model_spec(family.name) for family in families}
    for family in families:
        unregister_family(family.name)


@pytest.fixture(params=["EdgeTriangle", "over50", "EdgeCountProbe", "StackedFloatProbe"])
def family(request, probes, edge_triangle_over_50):
    if request.param == "EdgeTriangle":
        return EDGE_TRI
    if request.param == "over50":
        return edge_triangle_over_50
    return probes[request.param]


def _assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.array_equal(got, want, equal_nan=True) and np.array_equal(
        np.signbit(got), np.signbit(want)
    ), f"numpy {np.__version__}: {what} differs from the one-eta call"


_SPECIAL = st.sampled_from([0.0, -0.0, 50.0, -50.0, 1e-300])


@st.composite
def _stacks(draw, dim, full):
    """A stack of parameter vectors, |eta| up to 50, with signed zeros, and a
    stack of equal-size sub-histograms of ``full`` with random log counts."""
    size = draw(st.sampled_from([1, 2, 7, 33]), label="S")
    coordinate = st.one_of(_SPECIAL, st.floats(-50.0, 50.0))
    etas = np.array(draw(st.lists(st.tuples(*[coordinate] * dim), min_size=size,
                                  max_size=size), label="etas"), dtype=np.float64)
    rows = draw(st.integers(1, len(full[1])), label="rows")
    picks = [draw(st.permutations(range(len(full[1]))), label="picks")[:rows]
             for _ in range(size)]
    log_counts = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 10.0), min_size=rows, max_size=rows),
        min_size=size, max_size=size), label="log counts"))
    return etas, np.stack([full[0][p] for p in picks]), log_counts


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@given(data=st.data())
def test_stacked_moments_equal_one_call_per_eta(family, n, data):
    full = _classes(family, n)[1:]
    etas, points, log_counts = data.draw(_stacks(family.stat_dim, full))
    # one histogram for the whole stack
    stacked = _moments(*full, etas)
    for k, eta in enumerate(etas):
        for got, want, what in zip((x[k] for x in stacked), _moments(*full, eta),
                                   ("log Z", "mean", "covariance")):
            _assert_same_bits(got, want, f"{what} of item {k} of {len(etas)}")
    # a stack of equal-size histograms
    stacked = _moments(points, log_counts, etas)
    for k, eta in enumerate(etas):
        for got, want, what in zip((x[k] for x in stacked),
                                   _moments(points[k], log_counts[k], eta),
                                   ("log Z", "mean", "covariance")):
            _assert_same_bits(got, want, f"{what} of histogram {k} of {len(etas)}")
    # one-row events: the shortcut of the log-ratio parts
    rows = (points[:, :1], log_counts[:, :1])
    stacked = _log_ratio_parts(rows, full, etas)
    for k, eta in enumerate(etas):
        for got, want, what in zip((x[k] for x in stacked),
                                   _log_ratio_parts((rows[0][k], rows[1][k]), full, eta),
                                   ("value", "gradient", "Hessian")):
            _assert_same_bits(got, want, f"one-row {what} of item {k} of {len(etas)}")


# --------------------------------------------------------------------------
# the one-event-at-a-time ascent, as it ran before fits were batched
# --------------------------------------------------------------------------


def _ref_logsumexp(a):
    top = a.max()
    at_top = a == top
    rest = np.exp(a - top)
    rest[at_top] = 0.0
    count = np.float64(np.count_nonzero(at_top))
    return float(np.log1p(rest.sum() / count) + np.log(count) + top)


def _ref_moments(points, log_counts, eta):
    kernel = log_counts + points @ eta
    log_z = _ref_logsumexp(kernel)
    w = np.exp(kernel - log_z)
    mu = w @ points
    centered = points - mu
    return log_z, mu, centered.T @ (centered * w[:, None])


def _ref_log_ratio_parts(comp, full, eta):
    lse_f, mu_f, cov_f = _ref_moments(*full, eta)
    if len(comp[1]) == 1:
        lse_c = float(comp[1][0] + (comp[0] @ eta)[0])
        return lse_c - lse_f, comp[0][0] - mu_f, 0.0 - cov_f
    lse_c, mu_c, cov_c = _ref_moments(*comp, eta)
    return lse_c - lse_f, mu_c - mu_f, cov_c - cov_f


def _ref_faces_reach(comp, full, facets, eta, target):
    normals = facets[0]
    comp_on, full_on = _on_facets(comp[0], facets), _on_facets(full[0], facets)
    for k in np.argsort(-(normals @ eta), kind="stable"):
        if comp_on[:, k].any():
            basis = np.linalg.svd(normals[k][None, :])[2][1:]
            face_comp = (comp[0][comp_on[:, k]] @ basis.T, comp[1][comp_on[:, k]])
            face_full = (full[0][full_on[:, k]] @ basis.T, full[1][full_on[:, k]])
            if _ref_reaches(face_comp, face_full, target, basis @ eta):
                return True
    return False


def _ref_reaches(comp, full, target, eta):
    if full[0].shape[1] == 0:
        return _ref_logsumexp(comp[1]) - _ref_logsumexp(full[1]) >= target
    facets = _hull_facets(full[0])
    if not _on_facets(comp[0], facets).all(axis=0).any():
        eta, value, _, _ = _ref_climb(comp, full, target, eta)
        if value >= target:
            return True
    return _ref_faces_reach(comp, full, facets, eta, target)


def _ref_climb(comp, full, target, eta):
    value, grad, hess = _ref_log_ratio_parts(comp, full, eta)
    for iteration in range(1, NEWTON_MAX_ITERATIONS + 1):
        if value >= target or float(np.max(np.abs(grad))) <= NEWTON_TOLERANCE:
            return eta, value, value < target, iteration - 1
        try:
            direction = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            direction = grad
        if float(grad @ direction) <= 0.0:
            direction = grad
        resolved = float(grad @ direction) >= 2.0 * _VALUE_SLACK
        scale = 1.0
        for _ in range(60):
            candidate = eta + scale * direction
            cand_value, cand_grad, cand_hess = _ref_log_ratio_parts(comp, full, candidate)
            if cand_value >= value - _VALUE_SLACK or (
                scale == 1.0
                and not resolved
                and float(np.max(np.abs(cand_grad))) < float(np.max(np.abs(grad)))
            ):
                break
            scale *= 0.5
        else:
            return eta, value, False, iteration
        eta, value, grad, hess = candidate, cand_value, cand_grad, cand_hess
    return eta, value, False, NEWTON_MAX_ITERATIONS


def _ref_ascend_log_ratio(comp, full, facets):
    eta = np.zeros(full[0].shape[1])
    if _on_facets(comp[0], facets).all(axis=0).any():
        return eta, False, True, 0
    eta, value, stationary, iterations = _ref_climb(comp, full, -_SATURATION_TOL, eta)
    rounding = _ROUNDING * float(np.max(np.abs(full[0]) @ np.abs(eta)))
    boundary = value >= -_SATURATION_TOL or _ref_faces_reach(
        comp, full, facets, eta, value - _RECESSION_VALUE_TOL - rounding
    )
    return eta, stationary and not boundary, boundary, iterations


def _histogram_event(rows, log_counts):
    """An event as the fit cache keys it: the float64 bytes of the
    histogram's rows, then of their log counts."""
    return np.concatenate([np.ravel(rows), log_counts]).tobytes()


def _mean_event(row):
    """A one-row event: one graph at these statistics, log count 0."""
    return _histogram_event(row, np.zeros(1))


def _proper_event(fam, size, counts):
    """The completion-set event of a subgraph with completion ``counts``."""
    present = counts > 0
    return _histogram_event(_classes(fam, size)[1][present], np.log(counts[present]))


def _event_histogram(fam, event):
    """The (rows, log counts) of an event, decoded from its bytes."""
    flat = np.frombuffer(event)
    rows = len(flat) // (fam.stat_dim + 1)
    return (flat[: rows * fam.stat_dim].reshape(rows, fam.stat_dim).copy(),
            flat[rows * fam.stat_dim :].copy())


def _ref_fit(fam, size, event):
    """(eta bytes, theta_hat, converged, boundary, iterations) of one event,
    fitted alone; theta_hat as reprs, so that NaN compares equal."""
    full = _classes(fam, size)[1:]
    eta, converged, boundary, iterations = _ref_ascend_log_ratio(
        _event_histogram(fam, event), full, _statistic_facets(fam, size))
    if boundary:
        return eta.tobytes(), ("nan",) * fam.stat_dim, False, True, 0
    theta = eta - natural_params(fam, ParamVector(theta=(0.0,) * fam.stat_dim), size)
    return eta.tobytes(), tuple(repr(float(v)) for v in theta), converged, False, iterations


def _fit_key(fit):
    return (fit.eta.tobytes(), tuple(map(repr, fit.theta_hat)), fit.converged, fit.boundary,
            fit.iterations)


def _assert_batch_matches_reference(fam, size, events):
    _event_fit.cache_clear()
    fits = _event_fit.batch(fam, size, events)
    assert _event_fit.cache_info().misses == len(set(events))
    assert _event_fit.cache_info().hits == len(events) - len(set(events))
    reference = {event: _ref_fit(fam, size, event) for event in set(events)}
    full = _classes(fam, size)[1:]
    for k, (event, fit) in enumerate(zip(events, fits)):
        assert _fit_key(fit) == reference[event], (
            f"numpy {np.__version__}: event {k} of {len(events)}, {np.frombuffer(event)}")
        assert type(fit.converged) is bool and type(fit.iterations) is int
        if fit.converged:  # the Hessian of the last step, re-derived at eta
            want = -_log_ratio_parts(_event_histogram(fam, event), full, fit.eta)[2]
            _assert_same_bits(fit.information, want, f"information of event {k}")
        else:
            assert fit.information is None


@pytest.fixture(params=["EdgeTriangle", "over50"])
def dependent(request, edge_triangle_over_50):
    return EDGE_TRI if request.param == "EdgeTriangle" else edge_triangle_over_50


@pytest.mark.parametrize("n", [4, 5, 6])
def test_every_statistic_class_fits_as_alone(family, n):
    """Each class of the histogram as a one-row event, boundary classes
    included, in one batch.  Below n = 6 every class of the three curved
    statistics lies on the boundary of their hull, so every fit is
    boundary there."""
    events = [_mean_event(row) for row in _classes(family, n)[1]]
    _assert_batch_matches_reference(family, n, events)
    boundary = [fit.boundary for fit in _event_fit.batch(family, n, events)]
    assert any(boundary)
    assert not all(boundary) or (family.stat_dim == 3 and n < 6)


def _random_mean_events(fam, n, replicates, studies, seed):
    table = _stats_table(fam, n).astype(np.float64)
    draws = np.random.default_rng(seed).integers(len(table), size=(studies, replicates))
    return [_mean_event(mean) for mean in table[draws].mean(axis=1)]


@pytest.mark.parametrize("replicates", [1, 2, 3, 10])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_random_mean_events_fit_as_alone(dependent, n, replicates):
    events = _random_mean_events(dependent, n, replicates, 40, seed=n * 100 + replicates)
    _assert_batch_matches_reference(dependent, n, events)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_batches_with_duplicates_fit_as_alone(dependent, seed):
    rng = np.random.default_rng(seed)
    events = _random_mean_events(dependent, 5, 3, 30, seed=seed)
    events += [_mean_event(row) for row in _classes(dependent, 5)[1]]
    events += [events[k] for k in rng.integers(len(events), size=25)]
    events = [events[k] for k in rng.permutation(len(events))]
    assert len(set(events)) < len(events)
    _assert_batch_matches_reference(dependent, 5, events)


@pytest.mark.parametrize("n, n_sub", [(5, 3), (6, 4)])
def test_proper_events_fit_as_alone(dependent, n, n_sub):
    """Completion-set events, one per ``_joint_counts`` group."""
    events = []
    for k in range(1 << dyad_count(n_sub)):
        counts = _completion_counts(dependent, graph_from_index(n_sub, k), n)
        event = _proper_event(dependent, n, counts)
        if event not in events:
            events.append(event)
    assert len(events) <= len(_joint_counts(dependent, n, n_sub)[0])
    _assert_batch_matches_reference(dependent, n, events)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_random_completion_counts_fit_as_alone(dependent, n):
    """Proper events with random counts, up to each class's full count:
    among them ascents that run to the iteration limit, here and in the
    facet recursion."""
    rng = np.random.default_rng(n)
    full_counts = np.rint(np.exp(_classes(dependent, n)[2])).astype(np.intp)
    events = []
    for _ in range(40):
        counts = np.zeros_like(full_counts)
        rows = rng.choice(len(counts), size=rng.integers(1, len(counts) + 1), replace=False)
        counts[rows] = rng.integers(1, full_counts[rows] + 1)
        events.append(_proper_event(dependent, n, counts))
    _assert_batch_matches_reference(dependent, n, events)


def test_a_mixed_batch_fits_every_event_as_alone(dependent):
    """One batch at size 6 holding completion-set events of several row
    counts, one-row mean events and repeats: each group of equal row
    counts climbs in lock step, and every event keeps the bits of its fit
    alone, with one miss per distinct event and one hit per repeat."""
    proper = list(dict.fromkeys(
        _proper_event(dependent, 6, _completion_counts(dependent, graph_from_index(4, k), 6))
        for k in range(0, 1 << dyad_count(4), 5)))
    assert len({len(event) for event in proper}) >= 2
    means = list(dict.fromkeys(_random_mean_events(dependent, 6, 3, 8, seed=6)))
    assert len(means) >= 2
    distinct = proper + means
    repeats = [proper[0], means[-1], proper[-1], proper[0]]
    order = np.random.default_rng(6).permutation(len(distinct) + len(repeats))
    events = [(distinct + repeats)[k] for k in order]
    _assert_batch_matches_reference(dependent, 6, events)
    info = _event_fit.cache_info()
    assert (info.hits, info.misses) == (len(repeats), len(distinct))


def test_a_stalled_event_leaves_the_others_alone():
    """An event whose value is NaN never accepts a step: it stops after 60
    halvings of its first step while the rest of the stack climbs on, each
    as it climbs alone."""
    full = _classes(EDGE_TRI, 5)[1:]
    rows = np.array([[4.0, 1.0], [np.nan, np.nan], [6.5, 2.25], [3.0, 0.0]])
    start = np.zeros((len(rows), 2))
    with np.errstate(all="ignore"):
        eta, value, stationary, iterations, _ = _climb(
            (rows[:, None, :], np.zeros((len(rows), 1))), full, -_SATURATION_TOL, start)
        for k, row in enumerate(rows):
            want = _ref_climb((row[None, :], np.zeros(1)), full, -_SATURATION_TOL, start[k])
            got = eta[k], value[k], stationary[k], iterations[k]
            assert (got[0].tobytes(), repr(float(got[1])), bool(got[2]), int(got[3])) == (
                want[0].tobytes(), repr(float(want[1])), bool(want[2]), int(want[3])), k
    assert iterations[1] == 1 and not stationary[1]
    assert stationary[[0, 2]].all()


def test_a_batch_larger_than_the_cache_fits_every_event():
    """Eviction inside one batch: the batch still returns every fit, and the
    cache keeps the last ``maxsize`` distinct events, in order of first
    appearance."""
    events = _random_mean_events(EDGE_TRI, 5, 80, 320, seed=9)
    distinct = list(dict.fromkeys(events))
    assert len(distinct) > _event_fit.cache_info().maxsize
    _event_fit.cache_clear()
    fits = _event_fit.batch(EDGE_TRI, 5, events)
    assert _event_fit.cache_info().currsize == _event_fit.cache_info().maxsize
    for k in (0, 1, len(events) // 2, len(events) - 1):
        assert _fit_key(fits[k]) == _ref_fit(EDGE_TRI, 5, events[k])
    misses = _event_fit.cache_info().misses
    _event_fit.batch(EDGE_TRI, 5, (distinct[-_event_fit.cache_info().maxsize],))
    assert _event_fit.cache_info().misses == misses  # kept
    _event_fit.batch(EDGE_TRI, 5, (distinct[0],))
    assert _event_fit.cache_info().misses == misses + 1  # evicted


def test_threads_share_one_small_cache():
    """Six threads fit overlapping batches and single events through one
    cache with one entry fewer than the events, so evictions race with
    lookups: every fit keeps its bits and every lookup is counted once."""
    events = [_mean_event(row) for row in _classes(EDGE_TRI, 4)[1]]
    want = {event: _ref_fit(EDGE_TRI, 4, event) for event in events}
    cache = _FitCache(len(events) - 1)
    wrong: list = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            batch = [events[k] for k in rng.integers(len(events), size=4)]
            if rng.random() < 0.5:
                fits = cache.batch(EDGE_TRI, 4, batch)
            else:
                fits = [cache.batch(EDGE_TRI, 4, (event,))[0] for event in batch]
            wrong.extend(e for e, fit in zip(batch, fits) if _fit_key(fit) != want[e])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    info = cache.cache_info()
    assert info.hits + info.misses == 6 * 300 * 4
    assert info.currsize == info.maxsize


def test_one_singular_hessian_falls_back_alone():
    """A singular Hessian makes the stacked solve raise; the stack is then
    solved event by event, so only that event takes the gradient."""
    rng = np.random.default_rng(4)
    grad = rng.standard_normal((5, 2))
    root = rng.standard_normal((5, 2, 2))
    hess = -(root @ root.swapaxes(1, 2) + np.eye(2))  # negative definite
    hess[2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(-hess, grad[..., None])
    direction = _directions(grad, hess)
    assert direction[2].tobytes() == grad[2].tobytes()
    regular = [0, 1, 3, 4]
    alone = np.linalg.solve(-hess[regular], grad[regular][..., None])[..., 0]
    assert direction[regular].tobytes() == alone.tobytes()
    for k in regular:
        assert direction[k].tobytes() == np.linalg.solve(-hess[k], grad[k]).tobytes()
