import json
import threading
import warnings

import numpy as np
import pytest

from sep2n import cli
from sep2n.cli import (
    certificate_from_json,
    certificate_to_json,
    generate_state,
    load_state,
    main,
    state_to_json,
)
from sep2n.matrixcore import partial_transpose_matrix
from sep2n.sepengine import analyze

from helpers import build_separable, eig_rank, horodecki_2x4, random_product_vector


def write_state(path, matrix, n, **kwargs):
    with open(path, "w") as fh:
        json.dump(state_to_json(matrix, n, **kwargs), fh)


class TestGenerate:
    def test_rank_n_separable(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["generate", "--kind", "rank-n-separable", "--n", "4",
                     "--seed", "5", "--out", str(out)]) == 0
        state, doc = load_state(out)
        assert state.rank == 4 == eig_rank(state.matrix)
        assert abs(state.trace - 1.0) < 1e-12

    def test_pt_invariant(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["generate", "--kind", "pt-invariant", "--n", "3",
                     "--seed", "1", "--out", str(out)]) == 0
        state, _ = load_state(out)
        assert np.linalg.norm(state.matrix - state.pt_matrix, 2) <= 1e-12

    def test_npt(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["generate", "--kind", "npt", "--n", "2", "--out", str(out)]) == 0
        state, _ = load_state(out)
        assert state.pt_min_eigenvalue < 0

    def test_deterministic_for_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--kind", "separable", "--n", "3", "--seed", "9", "--out", str(a)])
        main(["generate", "--kind", "separable", "--n", "3", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["generate", "--kind", "npt", "--n", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}:") and "Traceback" not in err
        assert not out.parent.exists()


class TestAnalyzeCommand:
    def test_npt_exit_code(self, tmp_path):
        s = tmp_path / "npt.json"
        main(["generate", "--kind", "npt", "--n", "2", "--out", str(s)])
        assert main(["analyze", str(s)]) == 2

    def test_separable_roundtrip(self, tmp_path):
        s = tmp_path / "sep.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "3", "--seed", "2",
              "--out", str(s)])
        report_path = tmp_path / "r.json"
        assert main(["analyze", str(s), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["report"]["verdict"] == "separable"
        assert report["report"]["reverified"] is True
        assert len(report["report"]["certificate"]["terms"]) == 3

    def test_certificate_serialized_once(self, tmp_path, monkeypatch):
        # the report carries the dict that the round-trip check re-read; a
        # non-separable analysis serializes nothing
        s, npt = tmp_path / "sep.json", tmp_path / "npt.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "3", "--seed", "2",
              "--out", str(s)])
        main(["generate", "--kind", "npt", "--n", "2", "--out", str(npt)])
        made = []
        monkeypatch.setattr(cli, "certificate_to_json",
                            lambda cert: made.append(certificate_to_json(cert)) or made[-1])
        report, code = cli.run_analysis(s)
        assert code == 0 and len(made) == 1
        assert report["report"]["certificate"] is made[0]
        state, _doc = load_state(s)
        assert made[0] == certificate_to_json(analyze(state)[0].certificate)
        assert cli.run_analysis(npt)[0]["report"]["certificate"] is None and len(made) == 1

    def test_unwritable_report_is_input_error(self, tmp_path, capsys):
        s = tmp_path / "s.json"
        main(["generate", "--kind", "npt", "--n", "2", "--out", str(s)])
        capsys.readouterr()
        report_path = tmp_path / "missing" / "r.json"
        assert main(["analyze", str(s), "--report", str(report_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {report_path}:") and "Traceback" not in err

    def test_unwritable_report_refused_before_analysis(self, tmp_path, capsys, monkeypatch):
        s = tmp_path / "s.json"
        main(["generate", "--kind", "separable", "--n", "3", "--out", str(s)])
        capsys.readouterr()

        def analyze_not_called(*args, **kwargs):
            raise AssertionError("analyze ran before the report path was checked")
        monkeypatch.setattr(cli, "analyze", analyze_not_called)
        report_path = tmp_path / "missing" / "r.json"
        assert main(["analyze", str(s), "--report", str(report_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {report_path}: directory ")
        # the state is loaded first, so an unreadable input is the error reported
        missing_input = tmp_path / "absent.json"
        assert main(["analyze", str(missing_input), "--report", str(report_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing_input}:")

    def test_state_warnings_listed_once(self, tmp_path):
        # four product terms plus 3e-9 times a fifth: one eigenvalue of rho and
        # one of its partial transpose sit within 10x of the rank cutoff
        rng = np.random.default_rng(0)
        m, _, _ = build_separable(rng, 3, 4)
        s, r = tmp_path / "s.json", tmp_path / "r.json"
        write_state(s, m + 3e-9 * random_product_vector(rng, 3).projector(), 3)
        assert main(["analyze", str(s), "--report", str(r)]) == 0
        assert json.loads(r.read_text())["report"]["warnings"] == [
            "rho: 1 eigenvalue(s) within 10x of the rank cutoff",
            "rho_pt: 1 eigenvalue(s) within 10x of the rank cutoff"]

    def test_non_hermitian_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        write_state(bad, m, 2)
        assert main(["analyze", str(bad)]) == 1

    def test_malformed_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", str(bad)]) == 1

    def test_deterministic_reports(self, tmp_path):
        s = tmp_path / "s.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "4", "--seed", "7",
              "--out", str(s)])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["analyze", str(s), "--report", str(r1)])
        main(["analyze", str(s), "--report", str(r2)])
        d1 = json.loads(r1.read_text())
        d2 = json.loads(r2.read_text())
        assert d1["report"] == d2["report"]  # timings live outside this key
        assert r1.read_text() == json.dumps(d1, sort_keys=True, indent=2) + "\n"

    def test_tolerance_flag_recorded(self, tmp_path):
        s = tmp_path / "s.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "2", "--seed", "3",
              "--out", str(s)])
        r = tmp_path / "r.json"
        main(["analyze", str(s), "--tol", "rank_rel_tol=1e-8", "--report", str(r)])
        report = json.loads(r.read_text())
        assert report["report"]["tolerances"]["rank_rel_tol"] == 1e-8

    def test_env_tolerance_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps({"cert_recon_tol": 1e-7}))
        monkeypatch.setenv("SEP2N_TOL_FILE", str(cfg))
        s = tmp_path / "s.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "2", "--seed", "3",
              "--out", str(s)])
        r = tmp_path / "r.json"
        main(["analyze", str(s), "--report", str(r)])
        report = json.loads(r.read_text())
        assert report["report"]["tolerances"]["cert_recon_tol"] == 1e-7

    @pytest.mark.parametrize("tolerances", ["abc", [1, 2], {"psd_tol": True}],
                             ids=["string", "list", "bool-value"])
    def test_malformed_state_file_tolerances(self, tmp_path, capsys, tolerances):
        s = tmp_path / "s.json"
        write_state(s, np.eye(4, dtype=complex) / 4, 2, tolerances=tolerances)
        assert main(["analyze", str(s)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'tolerances' field of the state file")
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", ['"abc"', "[1, 2]", '{"psd_tol": true}'],
                             ids=["string", "list", "bool-value"])
    def test_malformed_env_tolerance_file(self, tmp_path, capsys, monkeypatch, content):
        cfg = tmp_path / "tol.json"
        cfg.write_text(content)
        monkeypatch.setenv("SEP2N_TOL_FILE", str(cfg))
        s = tmp_path / "s.json"
        write_state(s, np.eye(4, dtype=complex) / 4, 2)
        assert main(["analyze", str(s)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: tolerance config {cfg}")
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_matched_pair(self, tmp_path):
        s = tmp_path / "s.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "3", "--seed", "4",
              "--out", str(s)])
        r = tmp_path / "r.json"
        main(["analyze", str(s), "--report", str(r)])
        assert main(["verify", str(s), str(r)]) == 0

    def test_wrong_state(self, tmp_path):
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "3", "--seed", "4",
              "--out", str(s1)])
        main(["generate", "--kind", "rank-n-separable", "--n", "3", "--seed", "5",
              "--out", str(s2)])
        r = tmp_path / "r.json"
        main(["analyze", str(s1), "--report", str(r)])
        assert main(["verify", str(s2), str(r)]) != 0

    def test_flipped_weight_rejected(self, tmp_path):
        s = tmp_path / "s.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "2", "--seed", "4",
              "--out", str(s)])
        r = tmp_path / "r.json"
        main(["analyze", str(s), "--report", str(r)])
        doc = json.loads(r.read_text())
        doc["report"]["certificate"]["terms"][0]["weight"] *= -1
        r2 = tmp_path / "r2.json"
        r2.write_text(json.dumps(doc["report"]))
        assert main(["verify", str(s), str(r2)]) != 0

    @pytest.mark.parametrize("field, value", [
        ("weight", None), ("e", None), ("f", None),
        ("weight", "heavy"), ("e", [[1.0, 0.0]]),
    ], ids=["no-weight", "no-e", "no-f", "text-weight", "one-entry-e"])
    def test_malformed_term_is_input_error(self, tmp_path, capsys, field, value):
        s, r = self._analyzed_pair(tmp_path)
        doc = json.loads(r.read_text())
        term = doc["report"]["certificate"]["terms"][0]
        if value is None:
            del term[field]
        else:
            term[field] = value
        r.write_text(json.dumps(doc))
        assert main(["verify", str(s), str(r)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("field, value", [
        ("weight", float("inf")), ("e", [[float("nan"), 0.0], [1.0, 0.0]]),
        ("f", []), ("weight", True), ("weight", 10**400),
    ], ids=["infinite-weight", "nan-in-e", "empty-f", "bool-weight", "int-past-float-weight"])
    def test_bad_term_named_before_numpy(self, tmp_path, capsys, field, value):
        s, r = self._analyzed_pair(tmp_path)
        doc = json.loads(r.read_text())
        doc["report"]["certificate"]["terms"][1][field] = value
        r.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", str(s), str(r)]) == 1
        assert caught == []
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: bad certificate term 1: ")

    def test_non_product_terms_rejected(self, tmp_path, capsys):
        # eigenvectors of a PPT-entangled state, each posing as e (x) [1]
        m = horodecki_2x4(0.5)
        s = tmp_path / "s.json"
        write_state(s, m, 4)
        w, u = np.linalg.eigh(m)
        terms = [{"weight": float(w[i]), "e": [[x.real, x.imag] for x in u[:, i]],
                  "f": [[1.0, 0.0]]} for i in range(w.size) if w[i] > 1e-12]
        r = tmp_path / "r.json"
        r.write_text(json.dumps({"certificate": {"terms": terms}}))
        assert main(["verify", str(s), str(r)]) == 1
        assert capsys.readouterr().err.startswith("invalid certificate:")

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_e_far_from_unit_scale_fails_reconstruction(self, tmp_path, capsys, scale):
        # squaring such an e under- or overflows unless it is first rescaled;
        # it is |0> up to scale, which the state's first term does not hold
        s, r = self._analyzed_pair(tmp_path)
        doc = json.loads(r.read_text())
        doc["report"]["certificate"]["terms"][0]["e"] = [[scale, 0.0], [0.0, 0.0]]
        r.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", str(s), str(r)]) == 1
        assert caught == []
        out, err = capsys.readouterr()
        assert out == "certificate FAILS reconstruction\n" and err == ""

    @staticmethod
    def _analyzed_pair(tmp_path):
        s = tmp_path / "s.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "2", "--seed", "4",
              "--out", str(s)])
        r = tmp_path / "r.json"
        main(["analyze", str(s), "--report", str(r)])
        return s, r


class TestBatchCommand:
    def test_mixed_directory(self, tmp_path):
        d = tmp_path / "states"
        d.mkdir()
        for i, kind in enumerate(["rank-n-separable", "npt", "pt-invariant"]):
            main(["generate", "--kind", kind, "--n", "2", "--seed", str(i),
                  "--out", str(d / f"s{i}.json")])
        assert main(["batch", str(d), "--jobs", "2"]) == 0
        reports = sorted(p.name for p in d.glob("*.report.json"))
        assert reports == ["s0.report.json", "s1.report.json", "s2.report.json"]

    def test_empty_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["batch", str(d)]) == 0

    def test_out_dir_on_existing_file_is_input_error(self, tmp_path, capsys):
        d = tmp_path / "states"
        d.mkdir()
        main(["generate", "--kind", "npt", "--n", "2", "--out", str(d / "s.json")])
        capsys.readouterr()
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["batch", str(d), "--out-dir", str(blocker)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: cannot write {blocker}:") and "Traceback" not in err
        assert out == "" and blocker.read_text() == ""

    def test_corrupt_file_recorded(self, tmp_path, capsys):
        d = tmp_path / "states"
        d.mkdir()
        main(["generate", "--kind", "rank-n-separable", "--n", "2", "--seed", "0",
              "--out", str(d / "good.json")])
        (d / "bad.json").write_text("{broken")
        doc = json.loads((d / "good.json").read_text())
        doc["n"] = None
        (d / "badn.json").write_text(json.dumps(doc))
        assert main(["batch", str(d), "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        rows = {parts[0]: parts[1] for parts in map(str.split, out.splitlines())
                if parts and parts[0].endswith(".json")}
        assert rows["bad.json"] == "error" and rows["badn.json"] == "error"
        assert rows["good.json"] == "separable"
        assert (d / "good.report.json").exists()
        assert not (d / "bad.report.json").exists()
        assert not (d / "badn.report.json").exists()

    def test_malformed_tolerances_recorded(self, tmp_path, capsys):
        d = tmp_path / "states"
        d.mkdir()
        write_state(d / "good.json", np.eye(4, dtype=complex) / 4, 2)
        write_state(d / "badtol.json", np.eye(4, dtype=complex) / 4, 2, tolerances=[1, 2])
        assert main(["batch", str(d), "--jobs", "1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = {parts[0]: parts[1] for parts in map(str.split, out.splitlines())
                if parts and parts[0].endswith(".json")}
        assert rows == {"badtol.json": "error", "good.json": "separable"}
        assert "must be a JSON object" in out
        assert not (d / "badtol.report.json").exists()

    def test_subnormal_state_beside_normal_one(self, tmp_path, capsys):
        d = tmp_path / "states"
        d.mkdir()
        m = build_separable(np.random.default_rng(2), 3, 3)[0]
        write_state(d / "normal.json", m, 3)
        write_state(d / "tiny.json", m * 1e-310, 3)
        assert main(["batch", str(d), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        rows = {parts[0]: parts[1] for parts in map(str.split, out.splitlines())
                if parts and parts[0].endswith(".json")}
        assert rows == {"normal.json": "separable", "tiny.json": "separable"}
        tiny = json.loads((d / "tiny.report.json").read_text())["report"]
        # rescaled by an even power of two, decomposed without a fallback, re-verified
        assert tiny["trace"]["notes"] == ["input rescaled by 2**1030"]
        assert [step["op"] for step in tiny["trace"]["steps"]] == ["rank-n-decompose"]
        assert tiny["reverified"] is True
        assert main(["verify", str(d / "tiny.json"), str(d / "tiny.report.json")]) == 0
        assert (d / "normal.report.json").exists()

    def test_raising_analysis_recorded(self, tmp_path, capsys, monkeypatch):
        d = tmp_path / "states"
        d.mkdir()
        m = build_separable(np.random.default_rng(2), 3, 3)[0]
        write_state(d / "good.json", m, 3)
        write_state(d / "raises.json", 2 * m, 3)

        def analyze_or_raise(state):
            if state.trace > 1.5:
                raise ValueError("planted")
            return analyze(state)

        monkeypatch.setattr(cli, "analyze", analyze_or_raise)
        assert main(["batch", str(d), "--jobs", "2"]) == 0
        out, err = capsys.readouterr()
        assert err.startswith("raises.json:\nTraceback") and "ValueError: planted" in err
        rows = {parts[0]: parts[1:] for parts in map(str.split, out.splitlines())
                if parts and parts[0].endswith(".json")}
        assert rows["good.json"][0] == "separable"
        assert rows["raises.json"] == ["error", "0.000", "(ValueError:", "planted)"]
        assert "error                1" in out and "separable            1" in out
        assert (d / "good.report.json").exists()
        assert not (d / "raises.report.json").exists()

    def test_aggregate_counts_match_generator_manifest(self, tmp_path):
        # generator labels are ground truth for the npt / separable kinds
        d = tmp_path / "states"
        d.mkdir()
        manifest = {}
        idx = 0
        for kind, expected in [("rank-n-separable", "separable"),
                               ("pt-invariant", "separable"),
                               ("npt", "entangled_npt")]:
            for seed in range(6):
                name = f"s{idx:02d}.json"
                main(["generate", "--kind", kind, "--n", str(2 + idx % 3),
                      "--seed", str(seed), "--out", str(d / name)])
                manifest[name] = expected
                idx += 1
        assert main(["batch", str(d), "--jobs", "3"]) == 0
        for name, expected in manifest.items():
            report = json.loads((d / name.replace(".json", ".report.json")).read_text())
            assert report["report"]["verdict"] == expected, name

    def test_desk_scale_n8(self, tmp_path):
        s = tmp_path / "big.json"
        main(["generate", "--kind", "rank-n-separable", "--n", "8", "--seed", "1",
              "--out", str(s)])
        r = tmp_path / "big.report.json"
        assert main(["analyze", str(s), "--report", str(r)]) == 0
        report = json.loads(r.read_text())
        assert len(report["report"]["certificate"]["terms"]) == 8

    def test_parallelism_independent_results(self, tmp_path, capsys):
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        for d in (d1, d2):
            d.mkdir()
            for i in range(4):
                main(["generate", "--kind", "rank-n-separable", "--n", "3",
                      "--seed", str(i), "--out", str(d / f"s{i}.json")])
        capsys.readouterr()
        rows = []
        for d, jobs in ((d1, "1"), (d2, "4")):
            main(["batch", str(d), "--jobs", jobs])
            out = capsys.readouterr().out
            rows.append({parts[0]: parts[1] for parts in map(str.split, out.splitlines())
                         if parts and parts[0].endswith(".json")})
        assert rows[0] == rows[1] == {f"s{i}.json": "separable" for i in range(4)}
        for i in range(4):
            a = json.loads((d1 / f"s{i}.report.json").read_text())["report"]
            b = json.loads((d2 / f"s{i}.report.json").read_text())["report"]
            assert a == b

    def test_files_analyzed_on_calling_thread(self, tmp_path, monkeypatch):
        d = tmp_path / "states"
        d.mkdir()
        for i in range(3):
            main(["generate", "--kind", "rank-n-separable", "--n", "2", "--seed", str(i),
                  "--out", str(d / f"s{i}.json")])
        threads = []

        def recording_analyze(state):
            threads.append(threading.get_ident())
            return analyze(state)

        monkeypatch.setattr(cli, "analyze", recording_analyze)
        assert main(["batch", str(d), "--jobs", "2"]) == 0
        assert threads == [threading.get_ident()] * 3

    def test_jobs_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "--help"])
        assert "--jobs" not in capsys.readouterr().out


class TestDispatch:
    def test_parser_built_once(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert main(["batch", str(d)]) == 0
        assert cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("command", ["verify", "batch"])
    def test_command_patched_after_first_call_runs(self, tmp_path, monkeypatch, command):
        if command == "verify":
            s, r = TestVerifyCommand._analyzed_pair(tmp_path)
            argv = ["verify", str(s), str(r)]
        else:
            argv = ["batch", str(tmp_path)]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args.command) or 7)
        assert main(argv) == 7
        assert seen == [command]


class TestUsageAndInputErrors:
    """Every documented usage and input error exits 1 with its message on stderr."""

    @pytest.mark.parametrize("argv", [["analyze"], ["frobnicate"],
                                      ["generate", "--kind", "npt", "--n", "abc", "--out", "x"]],
                             ids=["missing-input", "unknown-command", "non-integer-n"])
    def test_usage_error_exits_1(self, capsys, argv):
        # argparse's own exit code, 2, is the code of an NPT verdict
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_trace_is_input_error(self, tmp_path, capsys):
        # a mixture of product projectors whose finite entries overflow the trace
        s = tmp_path / "s.json"
        write_state(s, np.diag([1.5e308, 1.5e308, 1e308, 5e307]).astype(complex), 2)
        assert main(["analyze", str(s)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {s}: trace inf or norm ") and "is not finite" in err

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "{state}", "--tol", "psd_tol"], "--tol expects KEY=VALUE"),
        (["analyze", "{state}", "--tol", "psd_tol=abc"], "could not convert"),
        (["analyze", "{state}", "--tol", "foo=1"], "unknown tolerance keys"),
        (["analyze", "{state}", "--tol", "rank_rel_tol=2"], "invalid tolerance config"),
        (["analyze", "{state}"], "cannot read tolerance config"),
        (["analyze", "{no_n}"], "needs 'n' and 'matrix' fields"),
        (["analyze", "{no_matrix}"], "needs 'n' and 'matrix' fields"),
        (["analyze", "{triple}"], "expected [re, im] pair"),
        (["analyze", "{wrong_n}"], "inconsistent with n=3"),
        (["verify", "{state}", "{absent}"], "cannot read certificate"),
        (["verify", "{state}", "{no_terms}"], "no certificate terms found"),
        (["batch", "{state}"], "is not a directory"),
        (["generate", "--kind", "npt", "--n", "0", "--out", "{absent}"], "n must be >= 1"),
        (["generate", "--kind", "separable", "--n", "2", "--rank", "0", "--out", "{absent}"],
         "rank 0 out of range"),
    ], ids=["tol-without-value", "tol-not-a-number", "tol-unknown-key", "tol-out-of-range",
            "unreadable-tol-file", "no-n", "no-matrix", "entry-not-a-pair", "n-against-shape",
            "missing-certificate", "certificate-without-terms", "batch-on-a-file",
            "generate-n-0", "generate-rank-0"])
    def test_input_error(self, tmp_path, capsys, monkeypatch, argv, message):
        state = state_to_json(np.eye(4, dtype=complex) / 4, 2)
        docs = {"state": state,
                "no_n": {k: v for k, v in state.items() if k != "n"},
                "no_matrix": {k: v for k, v in state.items() if k != "matrix"},
                "triple": {**state, "matrix": [[[1, 0, 0]] + row[1:] for row in state["matrix"]]},
                "wrong_n": {**state, "n": 3},
                "no_terms": {"format_version": 1}}
        paths = {name: tmp_path / f"{name}.json" for name in [*docs, "absent"]}
        for name, doc in docs.items():
            paths[name].write_text(json.dumps(doc))
        if message == "cannot read tolerance config":
            monkeypatch.setenv(cli.TOL_ENV_VAR, str(paths["absent"]))
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not paths["absent"].exists()


class TestVerdictExits:
    def test_ppt_entangled_exit(self, tmp_path):
        s, r = tmp_path / "h.json", tmp_path / "h.report.json"
        write_state(s, horodecki_2x4(0.5), 4)
        assert main(["analyze", str(s), "--report", str(r)]) == 3
        report = json.loads(r.read_text())["report"]
        assert report["verdict"] == "entangled_ppt"
        assert report["certificate"] is None and report["witness"]
        assert main(["verify", str(s), str(r)]) == 1

    def test_generate_random_ppt(self, tmp_path):
        s = tmp_path / "p.json"
        assert main(["generate", "--kind", "random-ppt", "--n", "4", "--out", str(s)]) == 0
        state, _doc = load_state(s)
        assert state.is_ppt and abs(state.trace - 1.0) < 1e-12
        assert main(["analyze", str(s)]) in (0, 3, 4)


class TestStateFileRoundTrip:
    def test_parse_serialize_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        m, _, _ = build_separable(rng, 3, 4)
        p1 = tmp_path / "a.json"
        write_state(p1, m, 3, label="roundtrip")
        state, doc = load_state(p1)
        p2 = tmp_path / "b.json"
        write_state(p2, state.matrix, 3, label=doc.get("label", ""))
        state2, _ = load_state(p2)
        assert np.allclose(state.matrix, state2.matrix, atol=0)

    def test_certificate_json_roundtrip(self):
        rng = np.random.default_rng(1)
        m, _, _ = build_separable(rng, 3, 3)
        verdict, _ = analyze(m)
        doc = certificate_to_json(verdict.certificate)
        cert = certificate_from_json(doc)
        rec1 = verdict.certificate.reconstruct(6)
        rec2 = cert.reconstruct(6)
        assert np.allclose(rec1, rec2, atol=1e-14)

    @pytest.mark.parametrize("bad_n", [None, "two", [2], 2.7, "3", True],
                             ids=["null", "string", "list", "fraction", "numeric-string",
                                  "bool"])
    def test_bad_n_is_input_error(self, tmp_path, capsys, bad_n):
        p = tmp_path / "s.json"
        write_state(p, np.eye(4, dtype=complex) / 4, 2)
        doc = json.loads(p.read_text())
        doc["n"] = bad_n
        p.write_text(json.dumps(doc))
        assert main(["analyze", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bad 'n' field" in err

    def test_integral_float_n_is_accepted(self, tmp_path):
        p = tmp_path / "s.json"
        write_state(p, np.eye(8, dtype=complex) / 8, 4)
        doc = json.loads(p.read_text())
        doc["n"] = 4.0
        p.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["analyze", str(p), "--report", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["n"] == 4

    def test_generator_parameter_validation(self):
        with pytest.raises(Exception):
            generate_state("npt", 1, None, 0)
        with pytest.raises(Exception):
            generate_state("unknown", 3, None, 0)
