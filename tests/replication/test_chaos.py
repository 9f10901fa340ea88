"""E17-extended crash injection: followers killed mid-replication.

:func:`repro.replication.chaos.run_follower_crash_matrix` kills a
follower at a sweep of byte offsets — during journal frame replay and
during snapshot download — and asserts it always restarts into a
consistent acked prefix and then resumes to full convergence.  These
tests run a coarse matrix; ``benchmarks/bench_e18_replication.py``
runs the dense one.
"""

from __future__ import annotations

from repro.fault.crashsim import frame_boundaries, run_crash_workload
from repro.replication import Recoverer, run_follower_crash_matrix


class TestFollowerCrashMatrix:
    def test_replay_and_snapshot_sweeps_recover(self, tmp_path):
        report = run_follower_crash_matrix(
            tmp_path, txns=10, stride=512, snapshot_stride=4096, seed=0
        )
        assert report.cases, "matrix ran no cases"
        assert report.ok, report.summary()
        streams = {case.stream for case in report.cases}
        assert streams == {"replay", "snapshot"}
        # The sweep must actually fire crashes, not sail past the file.
        assert any(case.crashed for case in report.cases)

    def test_every_case_lands_on_an_acked_prefix(self, tmp_path):
        report = run_follower_crash_matrix(
            tmp_path, txns=8, stride=1024, snapshot_stride=8192, seed=1,
            checkpoint_after=4,
        )
        assert report.ok, report.summary()
        for case in report.cases:
            assert case.facts["recovered_lsn"] >= 0
            assert case.detail == ""

    def test_defaults_kill_at_every_frame_boundary(self, tmp_path):
        """The spot between "frame appended" and "frame applied" — every
        one of them — is in the replay sweep (the pre-kit stride-only
        sweep hit 1 of the 25), and every point holds."""
        report = run_follower_crash_matrix(tmp_path / "m")
        assert report.ok, report.summary()
        assert report.fired >= 60
        # The follower's journal mirrors the primary's frame bytes.
        golden = run_crash_workload(tmp_path / "g", txns=24, seed=0)
        boundaries = frame_boundaries(golden.journal_path)
        assert len(boundaries) == 25
        replay = {c.offset: c for c in report.cases if c.stream == "replay"}
        assert set(boundaries) <= set(replay)
        # A cut exactly at a boundary recovers exactly that many frames.
        for lsn, boundary in enumerate(boundaries):
            assert replay[boundary].facts["recovered_lsn"] == lsn

    def test_seeded_defect_fails_the_matrix(self, tmp_path, monkeypatch):
        """A restarted follower that reports a stale applied LSN must
        fail at the first cut that leaves one frame durable."""
        real = Recoverer.start

        def stale(self):
            real(self)
            self.applied_lsn = max(0, self.applied_lsn - 1)

        monkeypatch.setattr(Recoverer, "start", stale)
        args = dict(txns=6, stride=512, snapshot_stride=8192, seed=3)
        report = run_follower_crash_matrix(tmp_path / "bad", **args)
        assert not report.ok
        first = report.failures[0]
        golden = run_crash_workload(tmp_path / "g", txns=6, seed=3)
        assert (first.stream, first.offset) == \
            ("replay", golden.acks[0].end_offset)
        assert first.crashed
        assert "diverges" in first.detail
        assert first.facts["recovered_lsn"] == 0

        monkeypatch.undo()
        assert run_follower_crash_matrix(tmp_path / "good", **args).ok
