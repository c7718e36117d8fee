"""CLI: config handling, CSV schemas, determinism, negative controls."""

import json
import math
import os
import shutil
import subprocess
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, gammainc

from bandmoments import cli, group_integrals, moments
from bandmoments.cli import CheckRow, load_config_file, main
from bandmoments.ensemble import RngStream, sample_goe_tridiagonal, sample_symmetric
from bandmoments.group_integrals import (_reduction_reports, _reduction_sums, hciz_sp2,
                                         hciz_u2, mc_hciz_sp2, mc_hciz_u2)
from bandmoments.lattice import LatticeParams, variance_profile
from bandmoments.moments import ScanConfig, estimate_f2
from bandmoments.transfer import build_kernel, transfer_evaluate


def _read(path: Path) -> str:
    return path.read_text()


class TestConfigFile:
    def test_parses_flat_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nsize = 32\nensemble = band  # trailing\n\n")
        assert load_config_file(str(cfg)) == {"size": "32", "ensemble": "band"}

    def test_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not a key value line\n")
        with pytest.raises(ValueError):
            load_config_file(str(cfg))

    def test_repeated_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("size = 16\n# comment\nsize = 32\n")
        with pytest.raises(ValueError, match=r"run\.cfg:3: .*'size'"):
            load_config_file(str(cfg))

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("size = 16\nsamples = 4\nbins = 20\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["spectrum", "--config", str(cfg), "--out", str(out1)])
        main(["spectrum", "--config", str(cfg), "--size", "24", "--out", str(out2)])
        m1 = json.loads(_read(out1 / "manifest.json"))
        m2 = json.loads(_read(out2 / "manifest.json"))
        assert m1["config"]["size"] == 16
        assert m2["config"]["size"] == 24

    def test_float_formatted_integers(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("size = 1.6e1\nsamples = 4.0\nbins = 20\n")
        out = tmp_path / "o"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads(_read(out / "manifest.json"))
        assert manifest["config"]["size"] == 16
        assert manifest["config"]["samples"] == 4
        cfg.write_text("size = 1.5\n")
        with pytest.raises(ValueError, match="'size'"):
            main(["spectrum", "--config", str(cfg), "--out", str(out)])

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sizzle = 16\n")
        with pytest.raises(ValueError):
            main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])

    def test_unknown_ensemble_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ensemble = gue\n")
        for command in ("spectrum", "scan-f2"):
            with pytest.raises(ValueError, match="'ensemble'"):
                main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("argv,key", [
        (["scan-f2", "--xi-diffs", "0,a"], "xi_diffs"),
        (["scan-f2", "--xi-diffs", ""], "xi_diffs"),
        (["scan-f2", "--workers", "0"], "workers"),
        (["verify-hciz", "--sets", "0"], "sets"),
        (["verify-hciz", "--draws", "0"], "draws"),
        (["scan-f2", "--xi-diffs", "0,nan"], "xi_diffs"),
        (["scan-f2", "--xi-diffs", "0,inf"], "xi_diffs"),
        # finite, but pi * 1e308 overflows the DS reference's argument
        (["scan-f2", "--size", "8", "--samples", "100", "--xi-diffs", "0,1e308"], "xi_diffs"),
        # finite, but the scaled energies overflow at N = 1
        (["scan-f2", "--size", "1", "--xi-diffs", "0,1.5e308"], "xi_diffs"),
        # the GOE ensemble reads no half_width, but a negative one is still refused
        (["spectrum", "--half-width", "-1"], "half_width"),
    ])
    def test_bad_value_names_key(self, argv, key, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(ValueError, match=f"'{key}'"):
            main(argv + ["--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_negative_seed_rejected(self, command, tmp_path):
        # refused at config time, before any command makes its output directory
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="'seed' must be at least 0"):
            main([command, "--seed", "-1", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["verify-chain", "--draws", "5"],
                                      ["spectrum", "--workers", "2"]])
    def test_flag_of_another_command_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_flags_are_config_keys(self):
        parser = cli._build_parser()
        subs = next(a for a in parser._actions if a.dest == "command").choices
        total = 0
        for command, sub in subs.items():
            flags = {a.dest for a in sub._actions if a.dest != "help"}
            assert flags == {"config"} | set(cli._COMMANDS[command][2])
            total += len(flags)
        assert total == 46


# (count key, its default) for every count key of every command
COUNT_KEYS = [(key, default) for _, _, defaults in cli._COMMANDS.values()
              for key, default in defaults.items() if key in cli._COUNT_KEYS]


class TestCountKeyCoercion:
    """Property tests of cli._coerce on every count key of every command."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(value=st.integers(-10**6, 0))
    def test_below_one_rejected(self, value):
        for key, default in COUNT_KEYS:
            with pytest.raises(ValueError, match=f"'{key}' must be at least 1"):
                cli._coerce(key, default, str(value))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(value=st.integers(1, 10**6))
    def test_integral_floats_parse(self, value):
        for key, default in COUNT_KEYS:
            for raw in (f"{value}.0", f"{value}e0", f"{value / 10}e1"):
                assert cli._coerce(key, default, raw) == value

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(value=st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()))
    def test_non_integral_floats_rejected(self, value):
        for key, default in COUNT_KEYS:
            with pytest.raises(ValueError, match=f"'{key}' needs an integer"):
                cli._coerce(key, default, repr(value))


class TestSpectrumCommand:
    def test_writes_schema_and_manifest(self, tmp_path):
        out = tmp_path / "spec"
        code = main(["spectrum", "--size", "32", "--samples", "4",
                     "--bins", "25", "--out", str(out)])
        assert code == 0
        lines = _read(out / "spectrum.csv").splitlines()
        assert lines[0] == "bin_left,bin_right,mass,semicircle_mass"
        assert len(lines) == 26
        manifest = json.loads(_read(out / "manifest.json"))
        assert "ks_distance" in manifest["summary"]

    @pytest.mark.parametrize("key", ["samples", "bins"])
    def test_rejects_empty_run(self, key, tmp_path):
        with pytest.raises(ValueError, match=f"'{key}'"):
            main(["spectrum", "--size", "8", f"--{key}", "0", "--out", str(tmp_path / "o")])

    def test_infinite_bandwidth_rejected(self, tmp_path):
        out = tmp_path / "inf"
        with pytest.raises(ValueError, match="bandwidth must be positive and finite, got inf"):
            main(["spectrum", "--ensemble", "band", "--bandwidth", "inf", "--out", str(out)])
        assert not out.exists()

    @staticmethod
    def _masses(out: Path) -> list[float]:
        return [float(row.split(",")[2]) for row in _read(out / "spectrum.csv").splitlines()[1:]]

    @staticmethod
    def _dense_draw(ensemble: str, stream: RngStream) -> np.ndarray:
        """The matrix `spectrum` draws from stream: the GOE's tridiagonal one, dense."""
        if ensemble == "band":
            return sample_symmetric(variance_profile(LatticeParams(8, 3.0)), 1, stream)[0]
        diag, offdiag_sq = sample_goe_tridiagonal(40, 1, stream)
        off = np.sqrt(offdiag_sq[0])
        return np.diag(diag[0]) + np.diag(off, 1) + np.diag(off, -1)

    @pytest.mark.parametrize("ensemble", ["goe", "band"])
    def test_masses_are_those_of_the_dense_draws(self, ensemble, tmp_path):
        out = tmp_path / ensemble
        assert main(["spectrum", "--ensemble", ensemble, "--size", "40", "--half-width", "8",
                     "--bandwidth", "3", "--samples", "3", "--bins", "500", "--seed", "2",
                     "--out", str(out)]) == 0
        eigs = np.concatenate([np.linalg.eigvalsh(self._dense_draw(ensemble, RngStream(2, k)))
                               for k in range(3)])
        edges = np.linspace(-2.5, 2.5, 501)
        assert self._masses(out) == (np.histogram(eigs, edges)[0] / eigs.size).tolist()

    def test_eigenvalues_on_edges_are_binned_alike(self, tmp_path, monkeypatch):
        # one rule for both ensembles: an eigenvalue on an edge falls in the
        # bin to its right, and one on the last edge in no bin
        edges = np.linspace(-2.5, 2.5, 6)
        spectrum = np.array([edges[0], edges[2], 0.0, edges[3], edges[-1]])
        monkeypatch.setattr(cli, "sample_goe_tridiagonal",
                            lambda n, count, stream: (spectrum[None], np.zeros((1, n - 1))))
        monkeypatch.setattr(cli, "sample_symmetric",
                            lambda profile, count, stream: np.diag(spectrum)[None])
        for ensemble in ("goe", "band"):
            assert main(["spectrum", "--ensemble", ensemble, "--size", "5", "--half-width", "2",
                         "--samples", "2", "--bins", "5",
                         "--out", str(tmp_path / ensemble)]) == 0
            assert self._masses(tmp_path / ensemble) == [0.2, 0.0, 0.4, 0.2, 0.0]


class TestScanCommand:
    ARGS = ["scan-f2", "--ensemble", "goe", "--size", "8", "--samples", "400",
            "--xi-diffs", "0,1"]

    def test_schema_and_diagonal_row(self, tmp_path):
        out = tmp_path / "scan"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        lines = _read(out / "scan_f2.csv").splitlines()
        assert lines[0] == "xi1,xi2,ratio,stderr,ds_ref,flag"
        diag = lines[1].split(",")
        assert diag[2] == "1" and diag[3] == "0"

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(self.ARGS + ["--seed", "3", "--out", str(out1)])
        main(self.ARGS + ["--seed", "3", "--out", str(out2)])
        assert _read(out1 / "scan_f2.csv") == _read(out2 / "scan_f2.csv")

    def test_summary_skips_diagonal_rows(self, tmp_path):
        def reject(constant):
            raise ValueError(f"manifest holds {constant}")

        out = tmp_path / "d"
        assert main(self.ARGS[:-1] + ["0", "--out", str(out)]) == 0
        summary = json.loads(_read(out / "manifest.json"), parse_constant=reject)["summary"]
        assert summary == {"max_abs_deviation": None, "ok_off_diagonal_rows": 0}
        out = tmp_path / "o"
        assert main(["scan-f2", "--size", "2", "--samples", "4000", "--xi-diffs", "0,0.5",
                     "--out", str(out)]) == 0
        rows = _read(out / "scan_f2.csv").splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == ["ok", "ok"]
        _, _, ratio, _, ds_ref, _ = rows[1].split(",")
        summary = json.loads(_read(out / "manifest.json"), parse_constant=reject)["summary"]
        assert summary == {"max_abs_deviation": abs(float(ratio) - float(ds_ref)),
                           "ok_off_diagonal_rows": 1}

    def test_huge_finite_xi_diff_runs(self, tmp_path):
        out = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scan-f2", "--size", "8", "--samples", "50", "--xi-diffs", "0,1e103",
                         "--out", str(out)]) == 0
        ds_ref = float(_read(out / "scan_f2.csv").splitlines()[2].split(",")[4])
        assert 0.0 < abs(ds_ref) < 6.0 / 1e103**2

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(self.ARGS + ["--seed", "3", "--out", str(out1)])
        main(self.ARGS + ["--seed", "3", "--workers", "2", "--out", str(out2)])
        assert _read(out1 / "scan_f2.csv") == _read(out2 / "scan_f2.csv")

    def test_infinite_bandwidth_rejected(self, tmp_path):
        out = tmp_path / "inf"
        with pytest.raises(ValueError, match="bandwidth must be positive and finite, got inf"):
            main(["scan-f2", "--ensemble", "band", "--half-width", "1", "--bandwidth", "inf",
                  "--samples", "4", "--out", str(out)])
        assert not out.exists()

    def test_one_sample_rejected(self, tmp_path):
        out = tmp_path / "one"
        with pytest.raises(ValueError, match="at least 2, got 1"):
            main(["scan-f2", "--size", "8", "--samples", "1", "--out", str(out)])
        assert not out.exists()


class TestVerifyCommands:
    FAST = ["--sets", "3", "--draws", "40000", "--seed", "1"]

    def test_hciz_passes_and_writes_rows(self, tmp_path):
        out = tmp_path / "v"
        code = main(["verify-hciz"] + self.FAST + ["--out", str(out)])
        assert code == 0
        lines = _read(out / "verify.csv").splitlines()
        assert lines[0] == "check_id,measured,reference,tolerance,pass"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_corrupted_constant_detected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "hciz_u2", lambda p: 1.001 * hciz_u2(p))
        out = tmp_path / "vc"
        code = main(["verify-hciz"] + self.FAST + ["--out", str(out)])
        assert code == 1
        lines = _read(out / "verify.csv").splitlines()
        assert any(line.endswith(",0") for line in lines[1:])

    def test_verify_rerun_byte_identical(self, tmp_path):
        # at these budgets some rows may fail; the rows are written all the same
        for argv in (["verify-hciz"] + self.FAST,
                     ["verify-chain", "--tail-draws", "3000", "--seed", "1"],
                     ["verify-reduction", "--draws", "30000", "--seed", "1"],
                     ["transfer-check", "--samples", "3000", "--seed", "1"]):
            out1, out2 = tmp_path / argv[0] / "d1", tmp_path / argv[0] / "d2"
            main(argv + ["--out", str(out1)])
            main(argv + ["--out", str(out2)])
            assert _read(out1 / "verify.csv") == _read(out2 / "verify.csv"), argv[0]

    def test_reduction_small(self, tmp_path):
        out = tmp_path / "r"
        code = main(["verify-reduction", "--draws", "200000", "--out", str(out)])
        assert code == 0

    def test_reduction_manifest_counts_truncated_draws(self, tmp_path, monkeypatch):
        # a box of 1.5 standard deviations drops about 30% of the draws
        monkeypatch.setattr(group_integrals, "_BOX", 1.5)
        out = tmp_path / "rt"
        main(["verify-reduction", "--draws", "20000", "--out", str(out)])
        summary = json.loads(_read(out / "manifest.json"))["summary"]
        assert summary["substreams"] == cli._REDUCTION_STREAMS
        truncation = summary["truncation"]
        assert [row["setting"] for row in truncation] == ["t0", "t1", "t2"]
        kept_share = (1.0 - erfc(1.5 / math.sqrt(2.0))) ** 2 * gammainc(2.0, 2.0 * 1.5**2)
        # the settings share their draws and the region is in standard units
        assert len({row["kept"] for row in truncation}) == 1
        for row in truncation:
            assert row["kept"] + row["dropped"] == 20000
            assert abs(row["kept"] / 20000 - kept_share) < 0.02

    def test_reduction_row_ids_keep_their_order(self, tmp_path):
        out = tmp_path / "ro"
        main(["verify-reduction", "--draws", "20000", "--out", str(out)])
        ids = [line.split(",")[0] for line in _read(out / "verify.csv").splitlines()[1:]]
        assert ids == [f"reduction_t{si}_{name}{suffix}" for si in range(3)
                       for name in ("one", "sum_sq", "gap_sq")
                       for suffix in ("", "_stderr_ok")]

    def test_transfer_rows_equal_per_point_calls(self):
        # one Monte Carlo scan per (n, W) serves both lambda0, to the last bit
        rows = cli.transfer_suite(seed=3, samples=3000, workers=1)[0]
        expected = []
        for n, w in cli._TRANSFER_POINTS:
            params = LatticeParams(n, w)
            for lam in (0.0, 1.0):
                mc = estimate_f2(ScanConfig(lambda0=lam, xi_pairs=((0.0, 0.0),),
                                            num_samples=3000, master_seed=3,
                                            lattice=params), lam, lam)
                result = transfer_evaluate(build_kernel(params, lam, 0.0))
                sigma = math.hypot(abs(mc.value) * mc.relative_stderr,
                                   result.quadrature_error_estimate)
                tag = f"n{n}_w{w:g}_l{lam:g}"
                expected += [CheckRow(f"transfer_mc_{tag}", (result.f2 - mc.value) / sigma,
                                      0.0, 3.0),
                             CheckRow(f"transfer_imag_{tag}", result.imag_ratio, 0.0, 1e-6)]
                if n == 0:
                    expected.append(CheckRow(f"transfer_n1_closed_form_l{lam:g}",
                                             abs(result.f2 - (lam**2 + 2.0)),
                                             0.0, 3.0 * sigma))
        assert rows == expected

    def test_pooled_rows_equal_serial_per_point_calls(self):
        # the points run on threads; each keeps its stream and sums, to the last bit
        seed, sets, draws = 2, 3, 5000
        rows = {r.check_id: r for r in cli.hciz_suite(seed, sets, draws)[0]}
        for k, p in enumerate(cli._hciz_parameter_sets(seed, sets)):
            mean, se = mc_hciz_sp2(p, draws, RngStream(seed, 100 + k))
            assert rows[f"hciz_sp2_mc_{k:02d}"].measured == abs(mean - hciz_sp2(p)) / se
            assert rows[f"hciz_sp2_mc_stderr_{k:02d}"].measured == se / abs(hciz_sp2(p))
            mean, se = mc_hciz_u2(p, draws, RngStream(seed, 200 + k))
            assert rows[f"hciz_u2_mc_{k:02d}"].measured == abs(mean - hciz_u2(p)) / se
        # the reduction's substreams, run one after another and their sums added
        names, phis = zip(*cli._REDUCTION_PHIS)
        settings = cli._REDUCTION_SETTINGS
        totals = np.zeros((len(settings), len(phis)))
        totals_sq = np.zeros_like(totals)
        kept = 0
        # one more draw than the others: the first substream takes the remainder
        counts = [1251, 1250, 1250, 1250]
        assert cli._REDUCTION_STREAMS == len(counts) and sum(counts) == draws + 1
        for k, count in enumerate(counts):
            part = _reduction_sums(settings, phis, count, RngStream(seed, k))
            totals += part[0]
            totals_sq += part[1]
            kept += part[2]
        expected = []
        for si, (t, d1, d2) in enumerate(settings):
            reports = _reduction_reports(t, d1, d2, phis, totals[si].tolist(),
                                         totals_sq[si].tolist(), kept)
            for name, rep in zip(names, reports):
                expected += [CheckRow(f"reduction_t{si}_{name}", rep.relative_difference,
                                      0.0, 0.01),
                             CheckRow(f"reduction_t{si}_{name}_stderr_ok",
                                      float(rep.stderr_ok), 1.0, 0.5)]
        assert cli.reduction_suite(seed, draws + 1)[0] == expected

    @pytest.mark.parametrize("argv", [["verify-chain", "--tail-draws", "3000"],
                                      ["verify-reduction", "--draws", "30000"]],
                             ids=["verify-chain", "verify-reduction"])
    def test_verify_csv_does_not_depend_on_the_thread_count(self, tmp_path, monkeypatch, argv):
        written = []
        for threads in (1, 2):
            monkeypatch.setattr(cli, "_pool_size", lambda count, threads=threads: threads)
            out = tmp_path / f"threads{threads}"
            main(argv + ["--seed", "4", "--out", str(out)])
            written.append(_read(out / "verify.csv"))
        assert written[0] == written[1]

    @staticmethod
    def _pool_threads():
        return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]

    def test_error_in_a_pooled_point_fails_the_command(self, tmp_path, monkeypatch):
        def fail(p, draws, rng):
            raise ArithmeticError("point failed")

        monkeypatch.setattr(cli, "mc_hciz_u2", fail)
        out = tmp_path / "e"
        with pytest.raises(ArithmeticError, match="point failed"):
            main(["verify-hciz"] + self.FAST + ["--out", str(out)])
        assert not (out / "verify.csv").exists()
        assert self._pool_threads() == []

    def test_runtime_warning_in_a_pooled_point_is_an_error(self, tmp_path, monkeypatch):
        # the warnings filters are process-wide, so the pool threads see them
        monkeypatch.setattr(cli, "_REDUCTION_PHIS",
                            (("log", lambda y1, y2: np.log(y1 - y1 - 1.0)),))
        out = tmp_path / "w"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="invalid value"):
                main(["verify-reduction", "--draws", "2000", "--out", str(out)])
        assert not (out / "verify.csv").exists()
        assert self._pool_threads() == []

    @pytest.mark.parametrize("command", ["verify-hciz", "verify-reduction"])
    def test_one_draw_rejected(self, command, tmp_path):
        # one draw has no error bar: z-scores would divide by a zero stderr
        out = tmp_path / "one"
        with pytest.raises(ValueError, match="draws must be at least 2, got 1"):
            main([command, "--draws", "1", "--out", str(out)])
        assert not out.exists()

    def test_chain_suite(self, tmp_path):
        out = tmp_path / "c"
        code = main(["verify-chain", "--tail-draws", "20000", "--out", str(out)])
        assert code == 0

    def test_chain_tail_rows_fail_without_a_fit(self, tmp_path):
        # one draw per point gives frequencies 0 or 1: no point to fit
        rows = {r.check_id: r for r in cli.chain_suite(seed=0, tail_draws=1)[0]}
        assert not rows["chain_tail_slope_negative"].passed
        assert not rows["chain_tail_fit_r2"].passed
        out = tmp_path / "c1"
        assert main(["verify-chain", "--tail-draws", "1", "--out", str(out)]) == 1
        lines = _read(out / "verify.csv").splitlines()
        assert [line.split(",")[0] for line in lines if line.endswith(",0")] == [
            "chain_tail_slope_negative", "chain_tail_fit_r2"]

    def test_report_runs_everything(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["report", "--sets", "2", "--draws", "200000",
                     "--samples", "60000", "--tail-draws", "20000",
                     "--out", str(out)])
        assert code == 0
        for rel in ("spectrum/spectrum.csv", "scan_f2/scan_f2.csv",
                    "verify_hciz/verify.csv", "verify_chain/verify.csv",
                    "verify_reduction/verify.csv", "transfer_check/verify.csv",
                    "manifest.json"):
            assert (out / rel).exists()


class TestManifest:
    def test_git_describe_ignores_caller_cwd(self, tmp_path, monkeypatch):
        package_dir = Path(cli.__file__).resolve().parent
        if shutil.which("git") is None or subprocess.run(
                ["git", "rev-parse", "--git-dir"], cwd=package_dir,
                capture_output=True).returncode != 0:
            pytest.skip("package is not in a git checkout")
        monkeypatch.chdir(tmp_path)
        assert cli._git_describe() != "unknown"

    def test_hung_git_leaves_the_run_intact(self, tmp_path, monkeypatch):
        def hang(args, **kwargs):
            raise subprocess.TimeoutExpired(args, kwargs["timeout"])

        monkeypatch.setattr(cli.subprocess, "run", hang)
        out = tmp_path / "s"
        assert main(["spectrum", "--size", "8", "--samples", "2", "--bins", "5",
                     "--out", str(out)]) == 0
        assert json.loads(_read(out / "manifest.json"))["git"] == "unknown"

    def test_records_libraries_and_blas_threads(self, tmp_path):
        # scans, suites and spectra of every size run on the one BLAS thread
        # pinned at import, also where an (N, N) product could split (N = 81)
        blas = moments._BLAS_THREADS
        expected = {"numpy": np.__version__, "openblas_threads": None if blas is None else 1}
        for argv in (["--ensemble", "goe", "--size", "8"],
                     ["--ensemble", "band", "--half-width", "3"],
                     ["--ensemble", "band", "--half-width", "40"]):
            assert main(["spectrum", *argv, "--samples", "2", "--bins", "5",
                         "--out", str(tmp_path / "s")]) == 0
            manifest = json.loads(_read(tmp_path / "s" / "manifest.json"))
            assert manifest["environment"] == expected
        for ensemble, source in (("band", "dense"), ("goe", "dumitriu-edelman")):
            assert main(["scan-f2", "--ensemble", ensemble, "--size", "8", "--half-width", "3",
                         "--bandwidth", "2", "--samples", "40", "--xi-diffs", "0,1",
                         "--out", str(tmp_path / ensemble)]) == 0
            manifest = json.loads(_read(tmp_path / ensemble / "manifest.json"))
            assert manifest["environment"] == {**expected, "sample_source": source}
        # at so few samples some rows may fail; the manifest is written all the same
        main(["transfer-check", "--samples", "200", "--out", str(tmp_path / "t")])
        manifest = json.loads(_read(tmp_path / "t" / "manifest.json"))
        assert manifest["environment"] == expected

    def test_pooled_suites_record_their_threads(self, tmp_path):
        # at so few draws some rows fail; the manifest is written all the same
        cpus = len(os.sched_getaffinity(0))
        for argv, points in ((["verify-hciz", "--sets", "2", "--draws", "2000"], 4),
                             (["verify-chain", "--tail-draws", "200"], 3),
                             (["verify-reduction", "--draws", "2000"], 4)):
            out = tmp_path / argv[0]
            main(argv + ["--out", str(out)])
            environment = json.loads(_read(out / "manifest.json"))["environment"]
            assert environment["pool_threads"] == min(points, cpus)
            assert list(environment)[-2:] == ["openblas_threads", "pool_threads"]


class TestCheckRow:
    def test_pass_semantics(self):
        assert CheckRow("x", 0.5, 0.5, 0.0).passed
        assert CheckRow("x", 0.6, 0.5, 0.1).passed
        assert not CheckRow("x", 0.7, 0.5, 0.1).passed
