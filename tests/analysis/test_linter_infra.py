"""Framework behaviour: suppressions, discovery, reporters, rules, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis import AnalysisConfig, lint_paths, render_json, render_text
from repro.analysis.__main__ import main as cli_main
from repro.analysis.rules import standard_rules

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

    def test_comment_above_decorators_covers_the_function(self, tmp_path):
        module = tmp_path / "decorated.py"
        module.write_text(
            "class Loader:\n"
            "    # repro-analysis: ignore[mutation-outside-transaction] -- replay\n"
            "    @staticmethod\n"
            "    def load(table, rows):\n"
            "        for row in rows:\n"
            "            table.apply_insert(row)\n",
            encoding="utf-8",
        )
        result = lint_paths([module])
        assert result.findings == []
        assert result.suppressed == 1
        assert result.unused_suppressions == []

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
# discovery
# ---------------------------------------------------------------------------
class TestDiscovery:
    def test_each_file_is_linted_once(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        bad = pkg / "bad.py"
        bad.write_text(MUTATION, encoding="utf-8")
        (tmp_path / "top.py").write_text("x = 1\n", encoding="utf-8")
        respelled = pkg / ".." / "pkg" / "bad.py"
        for paths, files in (
            ([bad, bad], 1),
            ([bad, respelled], 1),
            ([tmp_path, pkg], 2),
            ([pkg, tmp_path, bad], 2),
        ):
            result = lint_paths(paths)
            assert result.files_checked == files, paths
            assert [f.rule for f in result.findings] == [
                "mutation-outside-transaction"
            ], paths

    def test_first_spelling_is_reported(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(MUTATION, encoding="utf-8")
        respelled = tmp_path / "." / "bad.py"
        (finding,) = lint_paths([respelled, bad]).findings
        assert finding.path == str(respelled)


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
        assert payload["version"] == 2
        assert payload["summary"] == {
            "total": 1, "suppressed": 2, "files_checked": 1,
        }
        (finding,) = payload["findings"]
        assert finding["rule"] == "mutation-outside-transaction"
        assert finding["line"] == 3
        assert finding["severity"] == "error"


# ---------------------------------------------------------------------------
# rules + config
# ---------------------------------------------------------------------------
class TestRegistryAndConfig:
    def test_standard_rule_ids_are_unique(self):
        ids = [cls.id for cls in standard_rules()]
        assert all(ids) and "abstract" not in ids
        assert len(set(ids)) == len(ids)

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

    def test_rules_command_lists_catalogue(self, capsys):
        assert cli_main(["rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "bare-except",
            "codegen-namespace",
            "index-invariant",
            "mutation-outside-transaction",
            "nondeterminism-guard",
            "retry-discipline",
            "swallowed-lock-conflict",
            "trigger-recursion",
        ]

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "gone.py")]) == 2

    @pytest.mark.parametrize(
        "flag", [["--baseline", "b.json"], ["--write-baseline"],
                 ["--config", "pyproject.toml"]],
    )
    def test_retired_flags_are_refused(self, tmp_path, capsys, flag):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["lint", str(good), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
