"""SolverStats completeness: merge/serialization must cover every
field.

The PR-2 supervisor hand-listed the stats fields it forwarded over the
worker pipe and silently dropped ``flips``/``tries`` (and any future
field).  ``merge``/``as_dict``/``from_dict`` now iterate
``dataclasses.fields``; these tests pin that contract so adding a
counter can never silently fall out of the merge or the wire format
again.
"""

from dataclasses import fields

from repro.runtime.supervisor import stats_from_dict, stats_to_dict
from repro.solvers.result import SolverStats


def fully_populated():
    """A SolverStats with every field set to a distinct nonzero value."""
    stats = SolverStats()
    for offset, f in enumerate(fields(SolverStats)):
        if f.name == "metrics":
            stats.metrics = {"c": {"type": "counter",
                                   "value": 100 + offset}}
        elif f.name == "time_seconds":
            stats.time_seconds = 0.5 + offset
        else:
            setattr(stats, f.name, 1 + offset)
    return stats


class TestFieldCoverage:
    def test_as_dict_covers_every_field(self):
        stats = fully_populated()
        payload = stats.as_dict()
        assert set(payload) == {f.name for f in fields(SolverStats)}
        for f in fields(SolverStats):
            assert payload[f.name] == getattr(stats, f.name), f.name

    def test_from_dict_round_trips_every_field(self):
        stats = fully_populated()
        rebuilt = SolverStats.from_dict(stats.as_dict())
        for f in fields(SolverStats):
            assert getattr(rebuilt, f.name) == \
                getattr(stats, f.name), f.name

    def test_merge_touches_every_field(self):
        """Merging a fully populated stats into defaults must change
        every field (no field is silently skipped)."""
        base = SolverStats()
        defaults = SolverStats()
        base.merge(fully_populated())
        for f in fields(SolverStats):
            assert getattr(base, f.name) != \
                getattr(defaults, f.name), f.name

    def test_merge_sums_and_maxes(self):
        a = SolverStats(decisions=2, flips=3, tries=1,
                        max_decision_level=5, time_seconds=0.25)
        b = SolverStats(decisions=10, flips=7, tries=2,
                        max_decision_level=3, time_seconds=0.5)
        a.merge(b)
        assert a.decisions == 12
        assert a.flips == 10            # dropped by the PR-2 code
        assert a.tries == 3             # dropped by the PR-2 code
        assert a.max_decision_level == 5
        assert abs(a.time_seconds - 0.75) < 1e-9


class TestFromDictAudit:
    def test_unknown_keys_dropped(self):
        rebuilt = SolverStats.from_dict({"decisions": 3,
                                         "shutil": "rmtree"})
        assert rebuilt.decisions == 3
        assert not hasattr(rebuilt, "shutil")

    def test_wrong_types_dropped(self):
        rebuilt = SolverStats.from_dict({
            "decisions": "many", "conflicts": True,
            "time_seconds": "fast", "metrics": [1, 2]})
        assert rebuilt.decisions == 0
        assert rebuilt.conflicts == 0
        assert rebuilt.time_seconds == 0.0
        assert rebuilt.metrics is None


class TestSupervisorWireFormat:
    def test_round_trip_preserves_every_field(self):
        stats = fully_populated()
        rebuilt = stats_from_dict(stats_to_dict(stats))
        for f in fields(SolverStats):
            assert getattr(rebuilt, f.name) == \
                getattr(stats, f.name), f.name

    def test_malformed_payload_yields_defaults(self):
        rebuilt = stats_from_dict({"decisions": None, "evil": object()})
        assert rebuilt == SolverStats()
