"""Self-tuning backend selection: profiles, signatures, the auto backend.

Covers the calibration sweep end to end plus the persistence edge cases
the harness must absorb without crashing: corrupt files, old schema
versions, a changed backend registry, and buckets the profile has never
seen (static fallback).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import autotune
from repro.core.autotune import (
    PROFILE_VERSION,
    AutoBackend,
    CalibrationError,
    CalibrationProfile,
    CalibrationWorkload,
    ProfileChoice,
    ProfileWarning,
    build_profile,
    choice_applicable,
    context_signature,
    default_choice_grid,
    graph_signature,
    load_profile,
    measure_workload,
    plan_choice_for,
    query_signature,
    run_calibration,
    set_active_profile,
    signature_distance,
)
from repro.core.backend import backend_names, candidate_backends
from repro.core.query import MatchQuery
from repro.core.session import MatchSession
from repro.graph.digraph import digraph_from_edges
from repro.graph.generators import erdos_renyi
from repro.graph.labeled import assign_random_labels
from repro.pattern.catalog import get_pattern
from repro.pattern.directed import get_directed_pattern
from repro.pattern.labeled import LabeledPattern


@pytest.fixture(autouse=True)
def _no_profile_leaks():
    """Every test starts and ends with no active profile installed."""
    set_active_profile(None)
    yield
    set_active_profile(None)


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(160, 0.06, seed=7)


@pytest.fixture(scope="module")
def swept(g):
    """One real (small) calibration sweep shared by the selection tests."""
    workloads = [
        CalibrationWorkload("tri", g, MatchQuery(get_pattern("triangle"))),
        CalibrationWorkload("rect", g, MatchQuery(get_pattern("rectangle"))),
    ]
    profile, measurements = run_calibration(workloads, repeats=1)
    return g, profile, measurements


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------
class TestSignatures:
    def test_query_and_context_signatures_agree_plain(self, g):
        query = MatchQuery(get_pattern("house"))
        ctx = MatchSession(g).plan_for(query).context(g)
        assert query_signature(query) == context_signature(ctx)
        assert query_signature(query) == ("plain", 5, 6)

    def test_query_and_context_signatures_agree_induced(self, g):
        query = MatchQuery(get_pattern("triangle"), semantics="induced")
        ctx = MatchSession(g).plan_for(query).context(g)
        assert query_signature(query) == context_signature(ctx)
        assert query_signature(query)[0] == "induced"

    def test_query_and_context_signatures_agree_labeled(self, g):
        lg = assign_random_labels(g, 2, seed=3)
        base = get_pattern("triangle")
        query = MatchQuery(LabeledPattern(base, (0, 1, 0)))
        ctx = MatchSession(lg).plan_for(query).context(lg)
        assert query_signature(query) == context_signature(ctx)
        assert query_signature(query) == ("labeled", 3, 3)

    def test_query_and_context_signatures_agree_directed(self, g):
        dg = digraph_from_edges(list(g.edges()), n_vertices=g.n_vertices)
        query = MatchQuery(get_directed_pattern("ffl"))
        ctx = MatchSession(dg).plan_for(query).context(dg)
        assert query_signature(query) == context_signature(ctx)
        assert query_signature(query) == ("directed", 3, 3)

    def test_graph_signature_unwraps_labeled(self, g):
        lg = assign_random_labels(g, 3, seed=5)
        assert graph_signature(lg) == graph_signature(g)

    def test_graph_signature_buckets_are_coarse(self, g):
        # a few extra edges must not move the log-scale buckets
        near = erdos_renyi(160, 0.061, seed=7)
        assert graph_signature(near) == graph_signature(g)
        assert signature_distance(graph_signature(g), graph_signature(g)) == 0

    def test_graph_signature_memoised_on_graph(self, g):
        sig = graph_signature(g)
        assert g._autotune_signature == sig
        assert graph_signature(g) is g._autotune_signature

    def test_digraph_signature(self, g):
        dg = digraph_from_edges(list(g.edges()), n_vertices=g.n_vertices)
        sig = graph_signature(dg)
        assert len(sig) == 3 and all(b >= 0 for b in sig)


# ---------------------------------------------------------------------------
# profile persistence
# ---------------------------------------------------------------------------
def _tiny_profile(**overrides) -> CalibrationProfile:
    entry_key = (("plain", 3, 3), (5, 3, 1))
    choice = ProfileChoice.make("interpreter", use_iep=True)
    profile = CalibrationProfile(
        entries={
            entry_key: autotune.BucketEntry(
                pattern_sig=entry_key[0],
                graph_sig=entry_key[1],
                timings=((choice, 0.01),),
            )
        },
        backends=tuple(sorted(backend_names())),
        n_workloads=1,
    )
    return dataclasses.replace(profile, **overrides) if overrides else profile


class TestPersistence:
    def test_round_trip(self, tmp_path):
        profile = _tiny_profile()
        path = profile.save(tmp_path / "p.json")
        loaded = load_profile(path)
        assert loaded is not None
        assert loaded.version == PROFILE_VERSION
        assert set(loaded.entries) == set(profile.entries)
        (choice, seconds), = loaded.entries[next(iter(loaded.entries))].ranked()
        assert choice == ProfileChoice.make("interpreter", use_iep=True)
        assert seconds == pytest.approx(0.01)

    def test_missing_file_warns_and_returns_none(self, tmp_path):
        with pytest.warns(ProfileWarning, match="unreadable"):
            assert load_profile(tmp_path / "nope.json") is None

    def test_corrupt_json_warns_and_returns_none(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json at all")
        with pytest.warns(ProfileWarning, match="corrupt"):
            assert load_profile(path) is None

    def test_wrong_root_type_warns(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.warns(ProfileWarning, match="corrupt"):
            assert load_profile(path) is None

    def test_structurally_broken_entries_warn(self, tmp_path):
        payload = _tiny_profile().to_json()
        del payload["entries"][0]["timings"][0]["backend"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(ProfileWarning, match="corrupt"):
            assert load_profile(path) is None

    def test_old_version_warns_and_returns_none(self, tmp_path):
        payload = _tiny_profile().to_json()
        payload["version"] = PROFILE_VERSION - 1
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(ProfileWarning, match="schema version"):
            assert load_profile(path) is None

    def test_registry_change_invalidates_profile(self, tmp_path):
        # calibrated against a registry that no longer matches: the
        # measurements are untrustworthy, so the whole file is ignored.
        payload = _tiny_profile().to_json()
        payload["backends"] = ["interpreter", "some-retired-backend"]
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(ProfileWarning, match="registry"):
            assert load_profile(path) is None

    def test_profile_warning_is_a_user_warning(self):
        assert issubclass(ProfileWarning, UserWarning)


class TestActiveProfile:
    def test_set_and_clear(self):
        profile = _tiny_profile()
        assert set_active_profile(profile) is profile
        assert autotune.get_active_profile() is profile
        set_active_profile(None)
        assert autotune.get_active_profile() is None

    def test_set_by_path(self, tmp_path):
        path = _tiny_profile().save(tmp_path / "p.json")
        loaded = set_active_profile(path)
        assert isinstance(loaded, CalibrationProfile)

    def test_set_by_bad_path_warns_and_clears(self, tmp_path):
        with pytest.warns(ProfileWarning):
            assert set_active_profile(tmp_path / "nope.json") is None
        assert autotune.get_active_profile() is None

    def test_env_variable_consulted_lazily(self, tmp_path, monkeypatch):
        path = _tiny_profile().save(tmp_path / "env.json")
        monkeypatch.setenv(autotune.PROFILE_ENV, str(path))
        monkeypatch.setattr(autotune, "_ACTIVE", None)
        monkeypatch.setattr(autotune, "_ACTIVE_RESOLVED", False)
        profile = autotune.get_active_profile()
        assert profile is not None and profile.n_workloads == 1


# ---------------------------------------------------------------------------
# bucket lookup
# ---------------------------------------------------------------------------
class TestLookup:
    def test_exact_bucket_wins(self):
        profile = _tiny_profile()
        found = profile.lookup(("plain", 3, 3), (5, 3, 1))
        assert found is not None and found[1] == 0

    def test_nearest_bucket_within_distance(self):
        profile = _tiny_profile()
        found = profile.lookup(("plain", 3, 3), (6, 3, 2))
        assert found is not None and found[1] == 2

    def test_distance_cap(self):
        profile = _tiny_profile()
        assert profile.lookup(("plain", 3, 3), (20, 9, 9)) is None

    def test_pattern_signature_never_crosses(self):
        # a 4-clique bucket must not serve a triangle query, however
        # close the graph buckets are.
        profile = _tiny_profile()
        assert profile.lookup(("plain", 4, 6), (5, 3, 1)) is None


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------
class TestSweep:
    def test_measurements_cross_check_counts(self, swept):
        _, _, measurements = swept
        for m in measurements:
            assert m.count > 0
            assert len(m.seconds) >= 2  # several choices actually ran

    def test_profile_buckets_and_registry_snapshot(self, swept):
        _, profile, _ = swept
        assert profile.version == PROFILE_VERSION
        assert set(profile.backends) == set(backend_names())
        assert len(profile.entries) >= 1
        for entry in profile.entries.values():
            ranked = entry.ranked()
            assert ranked == sorted(ranked, key=lambda item: item[1])

    def test_no_applicable_choice_raises(self, g):
        workload = CalibrationWorkload(
            "w", g, MatchQuery(get_pattern("triangle"))
        )
        ghost = ProfileChoice.make("no-such-backend")
        with pytest.raises(CalibrationError, match="no swept choice"):
            measure_workload(workload, [ghost], repeats=1)

    def test_choice_applicability_filter(self):
        induced = MatchQuery(get_pattern("triangle"), semantics="induced")
        plain = MatchQuery(get_pattern("triangle"))
        iep_choice = ProfileChoice.make("compiled", use_iep=True)
        assert not choice_applicable(iep_choice, induced)
        assert choice_applicable(iep_choice, plain)
        assert not choice_applicable(ProfileChoice.make("ghost"), plain)
        vect_iep = ProfileChoice.make("vectorised", use_iep=True)
        assert choice_applicable(vect_iep, plain)  # bulk IEP: caps.iep_modes
        assert not choice_applicable(vect_iep, induced)

    def test_default_grid_heavy_superset(self):
        light = default_choice_grid()
        heavy = default_choice_grid(heavy=True)
        assert set(light) < set(heavy)
        assert any(c.backend == "distributed" for c in heavy)
        assert all(c.backend != "distributed" for c in light)

    def test_build_profile_aggregates_geomean(self):
        choice = ProfileChoice.make("interpreter")
        mk = lambda name, secs: autotune.WorkloadMeasurement(  # noqa: E731
            workload=name,
            pattern_sig=("plain", 3, 3),
            graph_sig=(5, 3, 1),
            count=1,
            seconds=((choice, secs),),
        )
        profile = build_profile([mk("a", 0.01), mk("b", 0.04)])
        (entry,) = profile.entries.values()
        ((_, seconds),) = entry.ranked()
        assert seconds == pytest.approx(0.02)  # geomean of 0.01 and 0.04
        assert profile.n_workloads == 2


# ---------------------------------------------------------------------------
# the auto backend
# ---------------------------------------------------------------------------
class TestAutoSelection:
    def test_registered_and_meta(self):
        assert "auto" in backend_names()
        assert AutoBackend.is_meta is True

    def test_meta_backend_excluded_from_candidates(self, g):
        ctx = MatchSession(g).plan_for(
            MatchQuery(get_pattern("triangle"))
        ).context(g)
        names = {info.name for info in candidate_backends(ctx)}
        assert "auto" not in names
        assert "interpreter" in names

    def test_no_profile_falls_back_to_static(self, g):
        session = MatchSession(g)
        query = MatchQuery(get_pattern("triangle"), backend="auto")
        result = session.count(query)
        report = result.autotune_report
        assert report is not None and report.source == "static"
        assert result.backend == f"auto:{report.chosen}"
        assert int(result) == int(session.count(MatchQuery(get_pattern("triangle"))))

    def test_profile_drives_selection(self, swept):
        g, profile, measurements = swept
        set_active_profile(profile)
        session = MatchSession(g)
        for pname, m in zip(("triangle", "rectangle"), measurements):
            query = MatchQuery(get_pattern(pname), backend="auto")
            result = session.count(query)
            report = result.autotune_report
            assert report.source == "profile"
            assert report.chosen == m.best[0].backend
            assert report.predicted_seconds == pytest.approx(
                dict(
                    profile.entries[(m.pattern_sig, m.graph_sig)].ranked()
                )[m.best[0]]
            )
            assert report.actual_seconds is not None
            assert int(result) == m.count

    def test_profile_folds_plan_knob(self, swept):
        g, profile, _ = swept
        set_active_profile(profile)
        session = MatchSession(g)
        query = MatchQuery(get_pattern("triangle"), backend="auto")
        entry = session.plan_for(query)
        winner = plan_choice_for(query, g, profile=profile)
        if winner.use_iep is False:
            assert entry.plan.iep_k == 0
        else:
            assert entry.plan.iep_k >= 0  # IEP winner keeps its suffix

    def test_empty_bucket_falls_back_to_static(self, swept):
        g, profile, _ = swept
        set_active_profile(profile)
        session = MatchSession(g)
        # house was never swept: no ("plain", 5, 6) bucket exists
        query = MatchQuery(get_pattern("house"), backend="auto")
        result = session.count(query)
        assert result.autotune_report.source == "static"
        assert int(result) == int(session.count(MatchQuery(get_pattern("house"))))

    def test_nearest_bucket_serves_unseen_graph(self, swept):
        _, profile, _ = swept
        set_active_profile(profile)
        other = erdos_renyi(300, 0.06, seed=11)
        assert graph_signature(other) != next(
            iter(profile.entries.values())
        ).graph_sig
        session = MatchSession(other)
        result = session.count(MatchQuery(get_pattern("triangle"), backend="auto"))
        assert result.autotune_report.source in ("profile", "profile-nearest")
        assert result.autotune_report.bucket_distance >= 0

    def test_instance_profile_beats_active(self, swept):
        g, profile, measurements = swept
        backend = AutoBackend(profile=profile)  # no active profile installed
        session = MatchSession(g)
        result = session.count(
            MatchQuery(get_pattern("triangle")), backend=backend
        )
        assert result.autotune_report.source == "profile"
        assert int(result) == measurements[0].count

    def test_instance_profile_from_path(self, swept, tmp_path):
        _, profile, _ = swept
        path = profile.save(tmp_path / "p.json")
        backend = AutoBackend(profile=path)
        assert backend.profile is not None

    def test_enumeration_delegates(self, swept):
        g, profile, _ = swept
        set_active_profile(profile)
        session = MatchSession(g)
        query = MatchQuery(get_pattern("triangle"), backend="auto")
        auto_embeddings = sorted(session.enumerate(query))
        plain = sorted(
            session.enumerate(MatchQuery(get_pattern("triangle")))
        )
        assert auto_embeddings == plain and auto_embeddings

    def test_retired_option_choice_skipped(self, g):
        # a profile stored when `distributed` took an `inner` executor
        # option still loads; that choice no longer constructs and is
        # skipped for the next ranked one.
        psig = ("plain", 3, 3)
        gsig = graph_signature(g)
        profile = CalibrationProfile(
            entries={
                (psig, gsig): autotune.BucketEntry(
                    pattern_sig=psig,
                    graph_sig=gsig,
                    timings=(
                        (
                            ProfileChoice.make(
                                "distributed",
                                {"simulate": False, "inner": "compiled"},
                                use_iep=False,
                            ),
                            0.001,
                        ),
                        (ProfileChoice.make("interpreter"), 0.002),
                    ),
                )
            },
            backends=tuple(sorted(backend_names())),
            n_workloads=1,
        )
        set_active_profile(profile)
        result = MatchSession(g).count(
            MatchQuery(get_pattern("triangle"), backend="auto")
        )
        assert result.backend == "auto:interpreter"
        assert result.count == MatchSession(g).count(
            MatchQuery(get_pattern("triangle")), backend="interpreter"
        ).count

    def test_unknown_profile_backend_skipped(self, g):
        # a profile naming a backend that no longer exists must not
        # crash the decision; the next ranked choice (or static) serves.
        psig = ("plain", 3, 3)
        gsig = graph_signature(g)
        key = (psig, gsig)
        profile = CalibrationProfile(
            entries={
                key: autotune.BucketEntry(
                    pattern_sig=psig,
                    graph_sig=gsig,
                    timings=(
                        (ProfileChoice.make("retired-backend"), 0.001),
                        (ProfileChoice.make("interpreter"), 0.002),
                    ),
                )
            },
            backends=tuple(sorted(backend_names())),
            n_workloads=1,
        )
        set_active_profile(profile)
        session = MatchSession(g)
        result = session.count(MatchQuery(get_pattern("triangle"), backend="auto"))
        assert result.autotune_report.chosen == "interpreter"
        assert result.autotune_report.source == "profile"

    def test_report_describe_mentions_choice(self, swept):
        g, profile, _ = swept
        set_active_profile(profile)
        result = MatchSession(g).count(
            MatchQuery(get_pattern("triangle"), backend="auto")
        )
        text = result.autotune_report.describe()
        assert "auto ->" in text and "predicted" in text and "actual" in text

    def test_decision_memo_reused(self, swept):
        g, profile, _ = swept
        set_active_profile(profile)
        session = MatchSession(g)
        query = MatchQuery(get_pattern("triangle"), backend="auto")
        session.count(query)
        assert profile._decisions  # the walk result was memoised
        first = session.count(query)
        second = session.count(query)
        assert first.backend == second.backend
        assert int(first) == int(second)


class TestReportPlumbing:
    def test_distributed_inner_report_surfaces(self, swept):
        g, profile, _ = swept
        # force a profile whose winner is the distributed backend so the
        # delegate's own side report must flow through to its slot.
        psig = ("plain", 3, 3)
        gsig = graph_signature(g)
        forced = CalibrationProfile(
            entries={
                (psig, gsig): autotune.BucketEntry(
                    pattern_sig=psig,
                    graph_sig=gsig,
                    timings=(
                        (
                            ProfileChoice.make(
                                "distributed", {"simulate": False}, use_iep=False
                            ),
                            0.001,
                        ),
                    ),
                )
            },
            backends=tuple(sorted(backend_names())),
            n_workloads=1,
        )
        set_active_profile(forced)
        session = MatchSession(g)
        result = session.count(MatchQuery(get_pattern("triangle"), backend="auto"))
        assert result.backend == "auto:distributed"
        assert result.distributed_report is not None
        assert result.autotune_report.inner_report is result.distributed_report
