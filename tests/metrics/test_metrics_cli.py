"""Exit-code contract of ``python -m repro.metrics``."""

import json

from repro.metrics import MetricsRegistry
from repro.metrics.__main__ import main


def write_exposition(tmp_path, text):
    path = tmp_path / "metrics.prom"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.counter("c_total", "help").labels().inc()
        path = write_exposition(tmp_path, registry.expose())
        assert main(["check", path]) == 0
        assert "ok: valid exposition" in capsys.readouterr().out

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        path = write_exposition(tmp_path, "no_type 1\nbroken{ 2\n")
        assert main(["check", path]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestBadInput:
    """Unreadable inputs exit 2 with one ``error:`` line, never a
    traceback, so CI can tell them from invalid exposition (exit 1)."""

    def test_check_missing_file_exits_two(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.prom")
        assert main(["check", absent]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.prom" in err

    def test_serve_missing_snapshot_exits_two(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        assert main(["serve", "--port", "0", "--snapshot", absent]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.json" in err

    def test_serve_snapshot_without_schema_exits_two(self, tmp_path,
                                                     capsys):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(json.dumps({"families": []}),
                            encoding="utf-8")
        assert main(["serve", "--port", "0",
                     "--snapshot", str(snapshot)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "schema" in err


class TestNoCommand:
    def test_help_exit_code(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
