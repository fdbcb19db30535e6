import json

import numpy as np
import pytest

from absnorm import bounds_report_from_json, bounds_report_to_json, mu_bounds
from absnorm.cli import (
    EXIT_COMPUTE_ERROR,
    EXIT_FIXTURE_FAILURE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    main,
)

SHARP_JSON = json.dumps({"field": "real", "n": 2, "rows": [[1, 1], [-1, -1]]})
HADAMARD_GRID = "1 1\n1 -1\n"


@pytest.fixture
def sharp_file(tmp_path):
    path = tmp_path / "sharp.json"
    path.write_text(SHARP_JSON)
    return str(path)


@pytest.fixture
def hadamard_file(tmp_path):
    path = tmp_path / "hadamard.txt"
    path.write_text(HADAMARD_GRID)
    return str(path)


def run(capsys, args):
    code = main(args)
    return code, capsys.readouterr().out


class TestMu:
    def test_sharp_exact_two(self, capsys, sharp_file):
        code, out = run(capsys, ["mu", sharp_file, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(2.0, abs=1e-9)
        assert payload["upper"] == pytest.approx(2.0, abs=1e-9)
        assert payload["shortcut"] == "sign_equivalent"

    def test_identity_grid(self, capsys, tmp_path):
        path = tmp_path / "eye.txt"
        path.write_text("1 0\n0 1\n")
        code, out = run(capsys, ["mu", str(path), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(1.0, abs=1e-9)
        assert payload["upper"] == pytest.approx(1.0, abs=1e-9)

    def test_text_header_states_seed(self, capsys, sharp_file):
        code, out = run(capsys, ["mu", sharp_file, "--seed", "7"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "# absnorm mu  seed=7"

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SHARP_JSON))
        code, out = run(capsys, ["mu", "-", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["exact"] is True

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(capsys, ["mu", str(path)])
        assert code == EXIT_INPUT_ERROR

    def test_non_square_exits_2(self, capsys, tmp_path):
        path = tmp_path / "rect.txt"
        path.write_text("1 2 3\n4 5 6\n")
        code, _ = run(capsys, ["mu", str(path)])
        assert code == EXIT_INPUT_ERROR

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _ = run(capsys, ["mu", str(tmp_path / "absent.json")])
        assert code == EXIT_INPUT_ERROR

    def test_empty_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        code, _ = run(capsys, ["mu", str(path)])
        assert code == EXIT_INPUT_ERROR

    def test_capacity_exits_3(self, capsys, hadamard_file):
        code, _ = run(capsys, ["mu", hadamard_file, "--depth", "40"])
        assert code == EXIT_COMPUTE_ERROR

    def test_out_of_memory_exits_3(self, capsys, monkeypatch, hadamard_file):
        import absnorm.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.7 GiB for an array")

        monkeypatch.setattr(cli, "mu_bounds", exhausted)
        code = main(["mu", hadamard_file])
        captured = capsys.readouterr()
        assert code == EXIT_COMPUTE_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")

    def test_complex_matrix_flags_heuristic(self, capsys, tmp_path):
        path = tmp_path / "cx.json"
        path.write_text(
            json.dumps(
                {"field": "complex", "n": 2, "rows": [[[1, 0], [0, 1]], [[1, 0], [-1, 0]]]}
            )
        )
        code, out = run(
            capsys, ["mu", str(path), "--grid-q", "4", "--depth", "3", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["grid_q"] == 4
        assert payload["upper_heuristic"] is True

    def test_odd_grid_order_exits_2(self, capsys, hadamard_file):
        code, _ = run(capsys, ["mu", hadamard_file, "--grid-q", "3"])
        assert code == EXIT_INPUT_ERROR

    def test_round_trip_through_engine(self, sharp_file):
        report = mu_bounds([[1, 1], [-1, -1]], max_depth=1)
        data = bounds_report_to_json(report)
        assert bounds_report_to_json(bounds_report_from_json(data)) == data


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys, hadamard_file):
        _, out1 = run(capsys, ["mu", hadamard_file, "--depth", "4", "--format", "json"])
        _, out2 = run(capsys, ["mu", hadamard_file, "--depth", "4", "--format", "json"])
        assert out1 == out2

    def test_thread_counts_byte_identical(self, capsys, hadamard_file):
        _, out1 = run(
            capsys,
            ["mu", hadamard_file, "--depth", "6", "--threads", "1", "--format", "json"],
        )
        _, out8 = run(
            capsys,
            ["mu", hadamard_file, "--depth", "6", "--threads", "8", "--format", "json"],
        )
        assert out1 == out8

    def test_demo_verdicts_stable_across_seeds(self, capsys):
        code0, out0 = run(capsys, ["demo", "--trials", "50", "--seed", "0", "--format", "json"])
        code1, out1 = run(capsys, ["demo", "--trials", "50", "--seed", "123", "--format", "json"])
        assert code0 == code1 == EXIT_OK
        verdicts0 = [f["passed"] for f in json.loads(out0)["fixtures"]]
        verdicts1 = [f["passed"] for f in json.loads(out1)["fixtures"]]
        assert verdicts0 == verdicts1

    def test_demo_threads_identical_payload(self, capsys):
        _, out1 = run(capsys, ["demo", "--trials", "50", "--threads", "1", "--format", "json"])
        _, out8 = run(capsys, ["demo", "--trials", "50", "--threads", "8", "--format", "json"])
        assert out1 == out8


class TestSignEquiv:
    def test_witness_payload(self, capsys, sharp_file):
        code, out = run(capsys, ["sign-equiv", sharp_file, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "sign_equivalent"
        assert payload["left"] == [1, -1]
        assert payload["right"] == [1, 1]

    def test_cycle_payload(self, capsys, hadamard_file):
        code, out = run(capsys, ["sign-equiv", hadamard_file, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "not_sign_equivalent"
        assert payload["cycle"] == [["r", 0], ["c", 0], ["r", 1], ["c", 1]]
        assert payload["phase_product"] == [-1.0, 0.0]

    def test_nonnegative_identity_witness(self, capsys, tmp_path):
        path = tmp_path / "nn.txt"
        path.write_text("1 2\n3 4\n")
        code, out = run(capsys, ["sign-equiv", str(path), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["left"] == [1, 1] and payload["right"] == [1, 1]

    def test_complex_witness_rebuilds_matrix(self, capsys, tmp_path):
        # Planted A = D1 |A| D2 with off-grid phases; D2's first entry is not
        # 1, so canonicalizing either side alone would break the identity.
        rng = np.random.default_rng(8)
        n = 3
        b = rng.random((n, n)) + 0.1
        b[0, 2] = 0.0
        d1 = np.exp(2j * np.pi * rng.random(n))
        d2 = np.exp(2j * np.pi * rng.random(n))
        a = d1[:, None] * b * d2[None, :]
        rows = [[[z.real, z.imag] for z in row] for row in a]
        path = tmp_path / "planted.json"
        path.write_text(json.dumps({"field": "complex", "n": n, "rows": rows}))
        code, out = run(capsys, ["sign-equiv", str(path), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "sign_equivalent"
        left = np.array([complex(re, im) for re, im in payload["left"]])
        right = np.array([complex(re, im) for re, im in payload["right"]])
        assert abs(right[0] - 1) > 0.1
        rebuilt = left[:, None] * np.abs(a) * right[None, :]
        assert np.allclose(rebuilt, a, rtol=0, atol=1e-12)


class TestGrowth:
    def test_growing_with_level(self, capsys, sharp_file):
        code, out = run(
            capsys, ["growth", sharp_file, "--level", "0.5", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "growing"
        seq = payload["sequence"]
        assert all(b / a == pytest.approx(4.0, abs=1e-6) for a, b in zip(seq, seq[1:]))

    def test_bounded_with_level(self, capsys, sharp_file):
        code, out = run(
            capsys, ["growth", sharp_file, "--level", "2.5", "--format", "json"]
        )
        assert json.loads(out)["verdict"] == "bounded" and code == EXIT_OK

    def test_identity_bounded_with_eps(self, capsys, tmp_path):
        path = tmp_path / "eye.txt"
        path.write_text("1 0\n0 1\n")
        code, out = run(capsys, ["growth", str(path), "--eps", "0.1", "--format", "json"])
        assert json.loads(out)["verdict"] == "bounded" and code == EXIT_OK

    def test_depth_one_witness_is_growing(self, capsys, tmp_path):
        # rho(A diag(1, 1, -1)) = 2.1165 > 2.1 although g_1 .. g_4 fall.
        path = tmp_path / "a.txt"
        path.write_text("1.4483 0.2202 1.1592\n-0.4793 0.9381 -0.6015\n-0.1574 2.4864 0.7671\n")
        argv = ["growth", str(path), "--level", "2.1", "--depth", "4", "--format", "json"]
        code, out = run(capsys, argv)
        assert json.loads(out)["verdict"] == "growing" and code == EXIT_OK

    def test_missing_eps_exits_2(self, capsys, sharp_file):
        code, _ = run(capsys, ["growth", sharp_file])
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("level", ["1e300", "1e-300"])
    def test_threshold_out_of_float_range_exits_2(self, capsys, tmp_path, level):
        # c^k over- or underflows long before depth 4 at this distance from
        # the matrix scale; the run ends in a typed error, not a traceback.
        path = tmp_path / "eye.txt"
        path.write_text("1 0\n0 1\n")
        code = main(["growth", str(path), "--level", level, "--depth", "4"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert err.startswith("error: growth threshold")


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["growth", "--level", "nan", "--depth", "3"],
            ["growth", "--eps", "nan", "--depth", "3"],
            ["growth", "--level", "inf", "--depth", "3"],
            ["mu", "--tol", "nan"],
            ["mu", "--prune-delta", "nan"],
            ["mu", "--prune-delta", "inf"],
        ],
    )
    def test_exits_2(self, capsys, hadamard_file, argv):
        code = main(argv[:1] + [hadamard_file] + argv[1:] + ["--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err

    def test_prune_delta_has_no_effect(self, capsys, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0.9 -0.6 0.3\n0.2 0.5 -0.8\n-0.4 0.1 0.7\n")
        outputs = {
            run(capsys, ["mu", str(path), "--depth", "4", "--prune-delta", d, "--format", "json"])
            for d in ("0", "1e-3", "0.05")
        }
        assert len(outputs) == 1 and next(iter(outputs))[0] == EXIT_OK


class TestDemo:
    def test_all_fixtures_pass(self, capsys):
        code, out = run(capsys, ["demo", "--trials", "50"])
        assert code == EXIT_OK
        assert "overall = PASS" in out
        assert "FAIL" not in out

    def test_fixture_failure_exits_1(self, capsys, monkeypatch):
        import absnorm.cli as cli

        real = cli._demo_fixtures

        def sabotaged(cfg):
            fixtures = real(cfg)
            fixtures.append(("forced-failure", lambda: (False, "injected")))
            return fixtures

        monkeypatch.setattr(cli, "_demo_fixtures", sabotaged)
        code, out = run(capsys, ["demo", "--trials", "50"])
        assert code == EXIT_FIXTURE_FAILURE
        assert "[FAIL] forced-failure" in out


class TestFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [("sign-equiv", ["--depth", "3"]), ("growth", ["--tol", "1e-9"]), ("demo", ["--grid-q", "4"])],
    )
    def test_unread_flag_exits_2(self, capsys, sharp_file, command, flag):
        argv = [command] + ([] if command == "demo" else [sharp_file]) + flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err
