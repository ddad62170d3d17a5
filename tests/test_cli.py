"""Command-line interface: subcommands, exit codes, deterministic JSON."""

import json

import numpy as np
import pytest

from mhstools.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestCatalog:
    def test_listing(self, capsys):
        rc, out, _ = run(capsys, "catalog")
        assert rc == 0
        for name in ("abc_minimal", "cylindrical", "exp_x3", "zsq_x3", "example3"):
            assert name in out
        for name in ("w4_1", "w4_2", "w4_3", "w4_4"):
            assert name in out

    def test_json_listing(self, capsys):
        rc, out, _ = run(capsys, "catalog", "--json")
        doc = json.loads(out)
        assert doc["schema"] == "v1"
        names = [e["name"] for e in doc["entries"]]
        assert len(names) == 9
        kinds = {e["kind"] for e in doc["entries"]}
        assert kinds == {"beltrami", "pressure"}

    def test_show_entry(self, capsys):
        rc, out, _ = run(capsys, "catalog", "show", "exp_x3")
        assert rc == 0
        assert "exp(z)" in out  # the coefficient expression

    @pytest.mark.parametrize("rest", [
        ("catalog",),
        ("catalog", "show", "w4_2"),
        ("verify", "w4_1", "--samples", "200"),
        ("verify", "exp_x3", "--domain", "box:-1,1,-1,1,-1,1", "--h", "z^2"),
        ("symmetry", "exp_x3", "--samples", "200"),
        ("orbit", "zsq_x3", "--gen", "rot-z", "--samples", "200"),
        ("gs", "--chart", "translational", "--theta", "(x^2+y^2)/2", "--samples", "200"),
        ("ggse", "--samples", "200"),
        ("composite", "--samples", "200", "--mc-samples", "2000"),
        ("characteristics", "w4_2", "--samples", "20"),
        ("export", "w4_1", "--grid", "3"),
        ("export", "composite", "--grid", "3"),
    ])
    def test_out_writes_json(self, capsys, tmp_path, rest):
        # one rule for every subcommand: --out writes the document --format json
        # prints, with or without --format json, and prints nothing; export's
        # --out writes the CSV it prints unless --format json asks for the document
        json_flags = ("--json",) if rest[0] == "catalog" else ("--format", "json")
        rc, doc, _ = run(capsys, *rest, *json_flags)
        assert json.loads(doc)["command"] == rest[0]
        wanted = {(): doc, json_flags: doc}
        if rest[0] == "export":
            _, csv, _ = run(capsys, *rest, "--format", "csv")
            wanted = {(): csv, ("--format", "csv"): csv, json_flags: doc}
        for flags, want in wanted.items():
            out_file = tmp_path / "out"
            assert run(capsys, *rest, *flags, "--out", str(out_file)) == (rc, "", "")
            assert out_file.read_text() == want

    def test_show_unknown(self, capsys):
        rc, _, err = run(capsys, "catalog", "show", "nope")
        assert rc == 2
        assert "unknown" in err


class TestVerify:
    def test_pressure_entry_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "w4_1")
        assert rc == 0
        assert "passed" in out

    def test_beltrami_entry_passes_with_more_samples(self, capsys):
        rc, out, _ = run(capsys, "verify", "exp_x3", "--samples", "2000")
        assert rc == 0

    def test_wrong_coefficient_fails(self, capsys):
        rc, out, _ = run(
            capsys,
            "verify",
            "exp_x3",
            "--domain",
            "box:-1,1,-1,1,-1,1",
            "--h",
            "z^2",
        )
        assert rc == 1
        assert "FAILED" in out

    def test_coefficient_override_needs_an_eigenfield(self, capsys):
        rc, out, err = run(capsys, "verify", "w4_1", "--h", "z^2")
        assert rc == 2
        assert out == ""
        assert "--h applies to curl-eigenfield entries" in err

    def test_unknown_field(self, capsys):
        rc, _, err = run(capsys, "verify", "missing_field")
        assert rc == 2

    def test_malformed_domain(self, capsys):
        rc, _, err = run(capsys, "verify", "w4_1", "--domain", "torus:1")
        assert rc == 2

    def test_non_finite_domain(self, capsys):
        rc, out, err = run(capsys, "verify", "w4_1", "--domain", "box:0,inf,0,1,0,1",
                           "--samples", "20")
        assert (rc, out) == (2, "")
        assert err == "error: bad domain spec 'box:0,inf,0,1,0,1': domain parameters must be finite\n"

    def test_domain_too_thin_to_sample(self, capsys):
        rc, out, err = run(capsys, "verify", "w4_1", "--domain", "sshell:0,0,0,0.9999999,1")
        assert rc == 2
        assert out == ""
        assert err == "error: rejection sampling failed; empty region?\n"


class TestSymmetry:
    @pytest.mark.parametrize(
        "name,dim",
        [("cylindrical", 1), ("exp_x3", 0), ("w4_2", 0)],
    )
    def test_null_dimensions(self, capsys, name, dim):
        rc, out, _ = run(capsys, "symmetry", name, "--format", "json", "--samples", "400")
        doc = json.loads(out)
        assert doc["report"]["null_dim"] == dim
        assert len(doc["report"]["singular_values"]) == 6
        assert rc == 0

    def test_needs_six_samples(self, capsys):
        rc, out, err = run(capsys, "symmetry", "exp_x3", "--samples", "3")
        assert (rc, out) == (2, "")
        assert err == "error: need at least 6 samples for a 6-parameter scan\n"

    @pytest.mark.parametrize("threshold", ["nan", "0", "-1", "1"])
    def test_threshold_outside_unit_interval_is_a_usage_error(self, capsys, threshold):
        rc, out, err = run(capsys, "symmetry", "exp_x3", "--samples", "20",
                           f"--threshold={threshold}")
        assert (rc, out) == (2, "")
        assert err.startswith("error: threshold must lie in (0, 1)")

    def test_report_schema(self, capsys):
        rc, out, _ = run(capsys, "symmetry", "cylindrical", "--format", "json", "--samples", "300")
        rep = json.loads(out)["report"]
        for key in ("singular_values", "null_dim", "null_basis", "threshold", "domain",
                    "seed", "n_samples"):
            assert key in rep
        assert rep["null_basis"][0].keys() == {"a", "b"}


class TestOrbit:
    def test_rotation_orbit(self, capsys):
        rc, out, _ = run(
            capsys, "orbit", "zsq_x3", "--gen", "rot-z", "--n", "2", "--format", "json"
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["passed"] is True
        assert len(doc["orbit"]["members"]) == 3

    def test_non_finite_numbers_are_null(self, capsys):
        # exp(x) overflows at x > 709.8: the residuals are NaN, written as null
        argv = ("orbit", "exp_x3", "--gen", "trans-x", "--n", "1",
                "--domain", "box:710,711,-1,1,-1,1")
        rc, out, err = run(capsys, *argv, "--format", "json")
        assert (rc, err) == (1, "")
        assert '"beltrami_max": null' in out
        assert json.loads(out)["passed"] is False
        assert run(capsys, *argv)[0] == 1

    def test_bad_generator(self, capsys):
        rc, _, err = run(capsys, "orbit", "zsq_x3", "--gen", "spin-w", "--n", "1")
        assert rc == 2

    def test_seed_and_generator_change_the_samples(self, capsys):
        argv = ("orbit", "zsq_x3", "--gen", "rot-z", "--n", "1", "--format", "json")
        _, out, _ = run(capsys, *argv)
        default = json.loads(out)
        rc, out, _ = run(capsys, *argv, "--seed", "7", "--generator", "random")
        seeded = json.loads(out)
        assert rc == 0 and seeded["passed"] is True
        assert seeded["config"]["seed"] == 7
        for key in ("beltrami_max", "max_magnitude"):
            got = [m[key] for m in seeded["orbit"]["members"]]
            assert got != [m[key] for m in default["orbit"]["members"]], key

    def test_generator_is_recorded(self, capsys):
        argv = ("orbit", "zsq_x3", "--gen", "rot-z", "--format", "json", "--seed", "3")
        _, out, _ = run(capsys, *argv)
        halton = json.loads(out)["config"]
        _, out, _ = run(capsys, *argv, "--generator", "random")
        random = json.loads(out)["config"]
        assert (halton["generator"], random["generator"]) == ("halton", "random")
        assert halton != random

    def test_domain_sets_the_samples(self, capsys):
        argv = ("orbit", "zsq_x3", "--gen", "rot-z", "--n", "1", "--format", "json")
        _, out, _ = run(capsys, *argv)
        default = json.loads(out)
        _, out, _ = run(capsys, *argv, "--domain", "box:-0.3,0.3,-0.3,0.3,0.8,1.2")
        boxed = json.loads(out)
        assert boxed["config"]["domain"] == "box:-0.3,0.3,-0.3,0.3,0.8,1.2"
        assert (boxed["orbit"]["members"][0]["max_magnitude"]
                < default["orbit"]["members"][0]["max_magnitude"])


class TestGs:
    def test_zero_residual_instance(self, capsys):
        rc, out, _ = run(
            capsys,
            "gs",
            "--chart",
            "translational",
            "--theta",
            "(x^2+y^2)/2",
            "--chi",
            "2*T",
            "--w3",
            "1",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["report"]["checks"]["gs_residual"]["max"] < 1e-10

    def test_malformed_theta(self, capsys):
        rc, _, err = run(capsys, "gs", "--chart", "translational", "--theta", "x +")
        assert rc == 2

    def test_theta_along_the_ignorable_direction(self, capsys):
        rc, out, err = run(capsys, "gs", "--chart", "translational", "--theta", "x*z")
        assert (rc, out) == (2, "")
        assert err.startswith("error: flux function varies along the ignorable direction (max ")


class TestGgse:
    def test_derived_decomposition(self, capsys):
        rc, out, _ = run(capsys, "ggse", "--format", "json")
        doc = json.loads(out)
        assert rc == 0
        assert doc["passed"] is True
        assert doc["report"]["checks"]["ggse_lhs"]["max"] < 1e-6


class TestComposite:
    def test_default_assembly(self, capsys):
        rc, out, _ = run(
            capsys,
            "composite",
            "--samples",
            "400",
            "--mc-samples",
            "20000",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["passed"] is True
        assert doc["report"]["core_killing"]["null_dim"] == 0

    @pytest.mark.parametrize("mc", ["0", "-5"])
    def test_needs_a_positive_mc_sample_count(self, capsys, mc):
        rc, out, err = run(capsys, "composite", "--samples", "50", "--mc-samples", mc)
        assert (rc, out) == (2, "")
        assert err == "error: need a positive sample count\n"


class TestExport:
    def test_csv_grid(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        rc, _, _ = run(
            capsys, "export", "exp_x3", "--grid", "8", "--format", "csv", "--out", str(out_file)
        )
        assert rc == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "x,y,z,wx,wy,wz"
        assert len(lines) == 8**3 + 1
        row = [float(v) for v in lines[1].split(",")]
        assert len(row) == 6

    def test_csv_grid_includes_pressure_for_pressure_fields(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        rc, _, _ = run(
            capsys, "export", "w4_1", "--grid", "4", "--format", "csv", "--out", str(out_file)
        )
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "x,y,z,wx,wy,wz,chi"
        assert len(lines) == 4**3 + 1

    def test_composite_grid_tags_regions(self, capsys, tmp_path):
        out_file = tmp_path / "composite.csv"
        rc, _, _ = run(
            capsys, "export", "composite", "--grid", "6", "--format", "csv",
            "--out", str(out_file),
        )
        assert rc == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "x,y,z,wx,wy,wz,region"
        regions = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert regions == {"core", "shell"}

    def test_composite_json_has_region_column(self, capsys):
        rc, out, _ = run(capsys, "export", "composite", "--grid", "5", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["command"] == "export" and doc["field"] == "composite"
        assert doc["columns"] == ["x", "y", "z", "wx", "wy", "wz", "region"]
        assert len(doc["rows"]) == 5**3
        assert {row[-1] for row in doc["rows"]} == {"core", "shell"}
        _, csv_out, _ = run(capsys, "export", "composite", "--grid", "5")
        csv_rows = [line.split(",") for line in csv_out.strip().split("\n")[1:]]
        for row, line in zip(doc["rows"], csv_rows):
            assert row[-1] == line[-1]
            assert [np.nan if v is None else v for v in row[:6]] == pytest.approx(
                [float(v) for v in line[:6]], nan_ok=True)

    def test_composite_domain_sets_the_grid(self, capsys):
        rc, out, _ = run(capsys, "export", "composite", "--grid", "3",
                         "--domain", "box:-0.2,0.2,-0.2,0.2,-0.2,0.2")
        assert rc == 0
        lines = out.strip().split("\n")[1:]
        pts = np.array([[float(v) for v in line.split(",")[:3]] for line in lines])
        assert pts.min() == -0.2 and pts.max() == 0.2
        assert {line.rsplit(",", 1)[1] for line in lines} == {"core"}

    def test_grid_values_match_field(self, capsys, tmp_path):
        from mhstools import registry

        out_file = tmp_path / "grid.csv"
        run(capsys, "export", "abc_minimal", "--grid", "4", "--format", "csv",
            "--out", str(out_file))
        lines = out_file.read_text().strip().split("\n")[1:]
        entry = registry.get("abc_minimal")
        for line in lines[:8]:
            vals = [float(v) for v in line.split(",")]
            np.testing.assert_allclose(entry.field(vals[:3]), vals[3:6], atol=1e-15)


class TestCharacteristics:
    def test_potential_transport(self, capsys):
        rc, out, _ = run(
            capsys, "characteristics", "w4_2", "--samples", "30", "--format", "json"
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["passed"] is True
        assert doc["sup_error"] < 1e-6

    def test_alpha_transport(self, capsys):
        rc, out, _ = run(
            capsys, "characteristics", "abc_minimal", "--samples", "30", "--format", "json"
        )
        assert rc == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_alpha_failure_is_reported_in_the_output(self, capsys, monkeypatch, fmt):
        from mhstools import cli
        from mhstools.reports import ConstructionError

        def fail(*args, **kwargs):
            raise ConstructionError("transport missed the gate")

        monkeypatch.setattr(cli, "alpha_from_characteristics", fail)
        rc, out, err = run(capsys, "characteristics", "cylindrical", "--format", fmt)
        assert (rc, err) == (1, "")
        if fmt == "json":
            doc = json.loads(out)
            assert doc["passed"] is False
            assert doc["error"] == "transport missed the gate"
        else:
            assert out == "error: transport missed the gate\nFAILED\n"

    def test_unsupported_name(self, capsys):
        rc, _, err = run(capsys, "characteristics", "exp_x3")
        assert rc == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "w4_1", "--samples", "300"),
            ("symmetry", "exp_x3", "--samples", "300"),
            ("symmetry", "exp_x3", "--samples", "300", "--generator", "random", "--seed", "4"),
            ("ggse", "--samples", "200"),
            ("orbit", "zsq_x3", "--gen", "rot-z", "--n", "1", "--samples", "200"),
        ],
    )
    def test_byte_identical_json(self, capsys, tmp_path, argv):
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        assert main([*argv, "--out", str(f1)]) == main([*argv, "--out", str(f2)])
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_export_byte_identical(self, capsys, tmp_path):
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        main(["export", "w4_3", "--grid", "6", "--format", "csv", "--out", str(f1)])
        main(["export", "w4_3", "--grid", "6", "--format", "csv", "--out", str(f2)])
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_a_key_error_is_a_bug_not_a_usage_error(capsys, monkeypatch):
    from mhstools import cli

    def boom(args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "cmd_catalog", boom)
    with pytest.raises(KeyError, match="missing"):
        main(["catalog"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "w4_1"),
        ("symmetry", "exp_x3"),
        ("orbit", "zsq_x3", "--gen", "rot-z"),
        ("gs", "--chart", "translational", "--theta", "x"),
        ("ggse",),
        ("composite",),
        ("characteristics", "w4_1"),
    ],
)
def test_csv_format_is_for_export_only(capsys, argv):
    # only export writes CSV; elsewhere --format csv would print text
    assert main([*argv, "--format", "csv"]) == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("composite", "--generator", "random"),
        ("composite", "--domain", "ball:0,0,0,1"),
        ("export", "exp_x3", "--seed", "3"),
        ("export", "exp_x3", "--samples", "10"),
        ("export", "exp_x3", "--generator", "random"),
        ("characteristics", "w4_1", "--generator", "random"),
        ("characteristics", "w4_1", "--domain", "ball:0,0,0,1"),
    ],
)
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    assert main(list(argv)) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
