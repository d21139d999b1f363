"""CLI smoke tests."""

import pytest

from repro.cli import main


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "BT" in out and "840" in out

    def test_patterns(self, capsys):
        assert main(["patterns", "--app", "EP"]) == 0
        out = capsys.readouterr().out
        assert "reduction" in out

    def test_classify(self, capsys):
        assert main(["classify", "--app", "fib"]) == 0
        out = capsys.readouterr().out
        assert "Pluto" in out and "DiscoPoP" in out

    def test_classify_batch(self, capsys):
        assert main(
            ["classify", "--app", "fib", "--batch",
             "--batch-size", "4", "--epochs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "MV-GNN" in out
        assert "runtime:" in out and "graphs/sec" in out

    def test_train(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["train", "--app", "fib", "--epochs", "2", "--batch-size", "4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "feature cache" in out and "path=batched" in out
        assert "best epoch:" in out
        # second run hits the disk-backed feature cache
        assert main(argv) == 0
        assert "0 misses" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--per-sample", "--no-compile"])
    def test_train_route_flags_rejected(self, capsys, flag):
        """Training has one route: the flags that picked another are gone
        and fail with argparse's usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["train", "--app", "fib", "--epochs", "1", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_lint_tiny_quick(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["lint", "--tiny", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "ir:" in out and "dataset:" in out
        assert "label crossval judged" in out
        assert "lint: clean" in out

    def test_lint_analyses_each_program_once(self, capsys, tmp_path, monkeypatch):
        from repro.dataset.assemble import DatasetConfig, programs_for_config
        from repro.lint import shared_analysis

        calls = []
        real = shared_analysis.analyze_program

        def counting(ir):
            calls.append(ir.name)
            return real(ir)

        monkeypatch.setattr(shared_analysis, "analyze_program", counting)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["lint", "--tiny", "--quick"]) == 0
        # IR rules, assembly quarantine, assembly crossval and DS005 all
        # read one range fixpoint per program
        programs = programs_for_config(DatasetConfig.tiny())
        assert sorted(calls) == sorted(programs)

    def test_lint_json_output(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["lint", "--tiny", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["findings"] == []
        assert payload["stats"]["crossval"]["judged"] > 0

    def test_suggest(self, capsys):
        assert main(["suggest", "--app", "nqueens"]) == 0
        out = capsys.readouterr().out
        assert "#pragma omp parallel for" in out
        assert "/* program:" in out

    def test_suggest_bad_program_index(self, capsys):
        assert main(["suggest", "--app", "fib", "--program", "99"]) == 2

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["classify", "--app", "NOPE"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestInterruptExit:
    """Ctrl-C / SIGTERM on any command exits 130, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [["train", "--app", "fib"], ["dataset", "--tiny"], ["serve"]],
        ids=["train", "dataset", "serve"],
    )
    def test_keyboard_interrupt_exits_130(self, argv, capsys, monkeypatch):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        # main() builds a fresh parser per call, and build_parser resolves
        # the _cmd_* globals at that moment — so patching the module
        # attribute is enough
        monkeypatch.setattr(cli, f"_cmd_{argv[0]}", interrupted)
        assert main(argv) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_sigterm_handler_raises_keyboard_interrupt(self):
        import signal

        import repro.cli as cli

        previous = signal.getsignal(signal.SIGTERM)
        try:
            cli._install_sigterm_handler()
            handler = signal.getsignal(signal.SIGTERM)
            assert callable(handler)
            with pytest.raises(KeyboardInterrupt):
                handler(signal.SIGTERM, None)
        finally:
            signal.signal(signal.SIGTERM, previous)
