"""Framework behaviour: suppressions, baselines, reporters, config, CLI."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    AnalysisConfig,
    Finding,
    apply_baseline,
    default_registry,
    lint_paths,
    load_baseline,
    load_config,
    render_json,
    render_text,
    write_baseline,
)
from repro.analysis.__main__ import main as cli_main
from repro.analysis.registry import Rule, RuleRegistry

MUTATION = """\
def load(table, rows):
    for row in rows:
        table.apply_insert(row)
"""


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_suppression(self, lint):
        findings = lint(
            """\
            def load(table, row):
                table.apply_insert(row)  # repro-analysis: ignore[mutation-outside-transaction] -- test
            """,
        )
        assert findings == []

    def test_comment_above_suppression(self, lint):
        findings = lint(
            """\
            def load(table, row):
                # repro-analysis: ignore[mutation-outside-transaction] -- test
                table.apply_insert(row)
            """,
        )
        assert findings == []

    def test_def_scope_suppression_covers_whole_body(self, lint):
        findings = lint(
            """\
            # repro-analysis: ignore[mutation-outside-transaction] -- replay
            def load(table, rows):
                for row in rows:
                    table.apply_insert(row)
                table.apply_delete(1)
            """,
        )
        assert findings == []

    def test_wrong_rule_id_does_not_suppress(self, lint):
        findings = lint(
            """\
            def load(table, row):
                table.apply_insert(row)  # repro-analysis: ignore[bare-except] -- wrong id
            """,
        )
        assert [f.rule for f in findings] == ["mutation-outside-transaction"]

    def test_docstring_mention_is_not_a_suppression(self, lint):
        findings = lint(
            '''\
            def load(table, row):
                """Use  # repro-analysis: ignore[mutation-outside-transaction]  to skip."""
                table.apply_insert(row)
            ''',
        )
        assert [f.rule for f in findings] == ["mutation-outside-transaction"]

    def test_unused_suppression_reported_in_strict_runs(self, tmp_path):
        module = tmp_path / "clean.py"
        module.write_text(
            "x = 1  # repro-analysis: ignore[bare-except] -- stale\n",
            encoding="utf-8",
        )
        result = lint_paths([tmp_path])
        assert result.findings == []
        assert [f.rule for f in result.unused_suppressions] == [
            "unused-suppression"
        ]
        assert cli_main(["lint", str(module)]) == 0
        assert cli_main(["lint", str(module), "--strict"]) == 1


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------
class TestBaseline:
    def test_roundtrip_and_subtraction(self, tmp_path, lint):
        findings = lint(MUTATION)
        assert len(findings) == 1
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        baseline = load_baseline(path)
        fresh, baselined, unused = apply_baseline(findings, baseline)
        assert fresh == [] and baselined == 1 and unused == []

    def test_unused_entries_surface(self, tmp_path, lint):
        path = tmp_path / "baseline.json"
        write_baseline(path, lint(MUTATION))
        fresh, baselined, unused = apply_baseline([], load_baseline(path))
        assert fresh == [] and baselined == 0 and len(unused) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert len(load_baseline(tmp_path / "nope.json")) == 0

    def test_fingerprint_is_line_independent(self):
        a = Finding(rule="r", message="m", path="p.py", line=3)
        b = Finding(rule="r", message="m", path="p.py", line=30)
        assert a.fingerprint() == b.fingerprint()


# ---------------------------------------------------------------------------
# reporters
# ---------------------------------------------------------------------------
class TestReporters:
    def test_text_report_shape(self, lint):
        report = render_text(lint(MUTATION), files_checked=1)
        assert "repro/somewhere/module.py:3:" in report
        assert "mutation-outside-transaction" in report
        assert report.endswith("1 finding (1 files checked)")

    def test_json_report_shape(self, lint):
        payload = json.loads(
            render_json(lint(MUTATION), files_checked=1, suppressed=2)
        )
        assert payload["version"] == 1
        assert payload["summary"] == {
            "total": 1, "suppressed": 2, "baselined": 0, "files_checked": 1,
        }
        (finding,) = payload["findings"]
        assert finding["rule"] == "mutation-outside-transaction"
        assert finding["line"] == 3
        assert finding["severity"] == "error"


# ---------------------------------------------------------------------------
# registry + config
# ---------------------------------------------------------------------------
class TestRegistryAndConfig:
    def test_plugin_rule_registration(self, tmp_path):
        registry = default_registry()

        @registry.register
        class NoTodoRule(Rule):
            id = "no-todo"
            summary = "TODO left in source"

            def check_module(self, ctx):
                for lineno, line in enumerate(
                    ctx.source.splitlines(), start=1
                ):
                    if "TODO" in line:
                        yield Finding(
                            rule=self.id, message="TODO", path=ctx.path,
                            line=lineno,
                        )

        module = tmp_path / "m.py"
        module.write_text("x = 1  # TODO\n", encoding="utf-8")
        result = lint_paths([tmp_path], registry=registry)
        assert [f.rule for f in result.findings] == ["no-todo"]

    def test_duplicate_rule_id_rejected(self):
        registry = RuleRegistry()

        class A(Rule):
            id = "dup"
            def check_module(self, ctx):
                return ()

        registry.register(A)
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(A)

    def test_only_selects_rules(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            "def f(t, r):\n"
            "    t.apply_insert(r)\n"
            "    try:\n"
            "        pass\n"
            "    except:\n"
            "        pass\n",
            encoding="utf-8",
        )
        result = lint_paths([tmp_path], only=["bare-except"])
        assert [f.rule for f in result.findings] == ["bare-except"]
        with pytest.raises(ValueError, match="unknown rule ids"):
            lint_paths([tmp_path], only=["nope"])

    def test_config_block_parsed(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            textwrap.dedent(
                """\
                [tool.repro-analysis]
                paths = ["lib"]
                disable = ["bare-except"]
                simulation_paths = ["repro/x/"]
                """
            ),
            encoding="utf-8",
        )
        config = load_config(pyproject)
        assert config.paths == ("lib",)
        assert config.is_disabled("bare-except")
        assert config.in_simulation_path("repro/x/a.py")
        assert not config.in_simulation_path("repro/net/sim.py")

    def test_unknown_config_key_raises(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro-analysis]\ntypo_key = 1\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="typo_key"):
            load_config(pyproject)

    def test_repo_config_matches_defaults(self):
        config = AnalysisConfig()
        assert config.in_simulation_path("repro/net/sim.py")
        assert not config.in_simulation_path("repro/rdb/engine.py")
        assert config.in_lock_sensitive_path("repro/core/scm.py")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_lint_exit_codes_and_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(MUTATION, encoding="utf-8")
        code = cli_main(["lint", str(bad), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["summary"]["total"] == 1

        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        assert cli_main(["lint", str(good)]) == 0

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(MUTATION, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert cli_main(
            ["lint", str(bad), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        assert cli_main(
            ["lint", str(bad), "--baseline", str(baseline)]
        ) == 0
        capsys.readouterr()
        # Strict still passes: every baseline entry is in use.
        assert cli_main(
            ["lint", str(bad), "--baseline", str(baseline), "--strict"]
        ) == 0

    def test_stale_baseline_fails_strict_only(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(MUTATION, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        cli_main(
            ["lint", str(bad), "--baseline", str(baseline), "--write-baseline"]
        )
        bad.write_text("x = 1\n", encoding="utf-8")  # finding fixed
        capsys.readouterr()
        assert cli_main(
            ["lint", str(bad), "--baseline", str(baseline)]
        ) == 0
        assert cli_main(
            ["lint", str(bad), "--baseline", str(baseline), "--strict"]
        ) == 1
        assert "stale-baseline-entry" in capsys.readouterr().out

    def test_rules_command_lists_catalogue(self, capsys):
        assert cli_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "mutation-outside-transaction",
            "trigger-recursion",
            "nondeterminism-guard",
            "index-invariant",
            "bare-except",
            "swallowed-lock-conflict",
        ):
            assert rule_id in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "gone.py")]) == 2
