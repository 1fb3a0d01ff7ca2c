"""CLI surface: schemas, exit codes, determinism, round trips."""

import json
import math

import pytest

from aatkit.algebroid import AlgebroidCurve
from aatkit.cli import parse_spec, run_command
from aatkit.errors import InvariantViolation, SchemaError
from aatkit.functions import FunctionSpec
from aatkit.poly import MultiPoly


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    U, V, W = (MultiPoly.variable(v) for v in "UVW")
    u = MultiPoly.variable("u")
    x, z = MultiPoly.variable("x"), MultiPoly.variable("z")

    def dump(name, data):
        p = root / name
        p.write_text(json.dumps(data))
        return str(p)

    cubic = [8 * u, MultiPoly.zero(("u",)), 3 * (1 - u), 1 - u]
    quartic = (W ** 2 + U ** 2 - V ** 2) ** 2 - 4 * U ** 2 * W ** 2 * (1 - V ** 2)
    return {
        "tan": dump("tan.json", {"type": "builtin", "name": "tan"}),
        "sin": dump("sin.json", {"type": "builtin", "name": "sin"}),
        "exp": dump("exp.json", {"type": "builtin", "name": "exp"}),
        "g_tan": dump("g_tan.json", (W * (1 - U * V) - (U + V)).to_json_dict()),
        "g_exp": dump("g_exp.json", (W - U * V).to_json_dict()),
        "g_bad": dump("g_bad.json", (W - U - V).to_json_dict()),
        "g_sin": dump("g_sin.json", quartic.to_json_dict()),
        "cubic": dump("cubic.json", {"type": "curve", "n": 3,
                                     "p": [p.to_json_dict() for p in cubic]}),
        "probe": dump("probe.json", AlgebroidCurve(
            2 - z + z ** 2 + 3 * z ** 3 + u - u * z - 2 * u * z ** 2
            - 2 * u * z ** 3).to_json_dict()),
        "stem": dump("stem.json", AlgebroidCurve(
            -1 + 3 * z ** 2 - 2 * u + u * z - 2 * u * z ** 2).to_json_dict()),
        "live_t": dump("live_t.json", {
            "type": "curve", "n": 2,
            "p": [MultiPoly.constant(1, ("u",)).to_json_dict(),
                  MultiPoly.zero(("u",)).to_json_dict(),
                  (MultiPoly.variable("t") - u).to_json_dict()]}),
        "bad_curve": dump("bad_curve.json", {
            "type": "curve", "n": 1,
            "p": [MultiPoly.zero(("u",)).to_json_dict(),
                  u.to_json_dict()]}),
        "dbl": dump("dbl.json", (x - z * z).to_json_dict()),
        "cos": dump("cos.json", {"type": "builtin", "name": "cos"}),
        "g_cos": dump("g_cos.json",
                      (W ** 2 - 2 * U * V * W + U ** 2 + V ** 2 - 1).to_json_dict()),
        "g_in_x": dump("g_in_x.json", (W - U * x).to_json_dict()),
        "g_zero": dump("g_zero.json", {"vars": ["U", "V", "W"], "terms": []}),
        "g_zero_den": dump("g_zero_den.json", {
            "vars": ["U", "V", "W"],
            "terms": [{"exps": [0, 0, 1], "re": ["1", "0"], "im": ["0", "1"]}]}),
        "sqrt_b7": dump("sqrt_b7.json", {
            "type": "algebroid", "branch": 7, "base": [1, 0],
            "curve": AlgebroidCurve(z * z - u).to_json_dict()}),
        "foo": dump("foo.json", {"type": "builtin", "name": "foo"}),
        "zero_den": dump("zero_den.json", {
            "type": "builtin", "name": "rational", "numer": u.to_json_dict(),
            "denom": MultiPoly.zero(("u",)).to_json_dict()}),
        "exp_800": dump("exp_800.json", {"type": "builtin", "name": "exp",
                                         "shift": [800, 0]}),
        "exp_700": dump("exp_700.json", {"type": "builtin", "name": "exp",
                                         "shift": [700, 0]}),
        "short_re": dump("short_re.json", {"vars": ["u", "z"], "terms": [
            {"exps": [0, 2], "re": [1], "im": ["0", "1"]},
            {"exps": [1, 0], "re": ["1", "1"]}]}),
        "short_exps": dump("short_exps.json", {"vars": ["u", "z"], "terms": [
            {"exps": [2], "re": ["1", "1"]}, {"exps": [1, 0], "re": ["1", "1"]}]}),
        "short_coeff": dump("short_coeff.json", {
            "type": "element", "series": {"center": [0, 0], "low": 0, "order": 2,
                                          "exact": True,
                                          "coeffs": [[["1", "1"]], [["1", "1"], ["0", "1"]]]}}),
        "short_float": dump("short_float.json", {
            "type": "element", "series": {"center": [0, 0], "low": 0, "order": 2,
                                          "exact": False, "coeffs": [[1.0], [1.0, 0.0]]}}),
        "e1": dump("e1.json", {"type": "series", "center": [0, 0], "low": 0, "order": 1,
                               "exact": True, "coeffs": [[["1", "1"], ["0", "1"]]]}),
        "e0": dump("e0.json", {"type": "series", "center": [0, 0], "low": 0, "order": 0,
                               "exact": True, "coeffs": []}),
        "root": root,
    }


def run_json(argv, capsys):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParseSpec:
    def test_builtin(self, files):
        spec = parse_spec(files["tan"])
        assert isinstance(spec, FunctionSpec) and spec.name == "tan"

    def test_curve(self, files):
        curve = parse_spec(files["cubic"])
        assert isinstance(curve, AlgebroidCurve) and curve.n == 3

    def test_poly_by_shape(self, files):
        poly = parse_spec(files["g_tan"])
        assert isinstance(poly, MultiPoly)

    def test_zero_p0_invariant(self, files):
        with pytest.raises(InvariantViolation):
            parse_spec(files["bad_curve"])

    def test_unknown_schema(self, files, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text('{"hello": 1}')
        with pytest.raises(SchemaError):
            parse_spec(str(p))


class TestExitCodes:
    def test_verified_exit_zero(self, files, capsys):
        code, rep = run_json(["aat", "verify", "--poly", files["g_tan"],
                              "--fn", files["tan"]], capsys)
        assert code == 0 and rep["status"] == "verified"

    def test_refuted_exit_one(self, files, capsys):
        code, rep = run_json(["aat", "verify", "--poly", files["g_bad"],
                              "--fn", files["exp"]], capsys)
        assert code == 1 and rep["status"] == "refuted"

    def test_schema_error_exit_two(self, files, capsys):
        code = run_command(["algebroid", "singular", "--curve",
                            files["bad_curve"]])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("poly,needle", [("g_in_x", "(U, V, W)"),
                                             ("g_zero_den", "Fraction(1, 0)")])
    def test_bad_relation_is_one_schema_error(self, files, capsys, poly, needle):
        code = run_command(["aat", "verify", "--poly", files[poly],
                            "--fn", files["exp"]])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert code == 2 and out.err == ""
        assert rep["error"]["type"] == "SchemaError"
        assert needle in rep["error"]["message"]

    def test_curve_with_live_parameter_is_one_typed_error(self, files, capsys):
        # z^2 - u + t: a curve with a variable other than u and z of
        # positive degree is rejected, not expanded at some value of t
        code = run_command(["algebroid", "expand", "--curve", files["live_t"],
                            "--center", "1"])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert (code, rep["error"]["type"]) == (2, "InvariantViolation") and out.err == ""
        assert rep["error"]["message"] == "curve in u, z has other variables: t"

    @pytest.mark.parametrize("bounds", ["x,1,1", "1,1", "1.5,1,1"])
    def test_bad_bounds_are_one_schema_error(self, files, capsys, bounds):
        code = run_command(["aat", "discover", "--fn", files["exp"], "--bounds", bounds])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert (code, rep["error"]["type"]) == (2, "SchemaError") and out.err == ""

    @pytest.mark.parametrize("bounds", ["-1,1,1", "1,1,-2"])
    def test_negative_bounds_are_one_schema_error(self, files, capsys, bounds):
        # the = form gets a negative value past argparse
        code = run_command(["aat", "discover", "--fn", files["exp"], f"--bounds={bounds}"])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert (code, rep["error"]["type"]) == (2, "SchemaError") and out.err == ""

    def test_zero_bounds_are_a_valid_box(self, files, capsys):
        code = run_command(["aat", "discover", "--fn", files["exp"], "--bounds=0,0,0"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 1 and rep["kernel_dimension"] == 0

    def test_usage_error_exit_two(self, capsys):
        code = run_command(["aat", "verify"])  # missing required args
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert code == 2 and out.err == ""
        assert rep["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("argv", [["aat", "discover", "--fn", "f.json",
                                       "--bounds", "-1,1,1"],  # a value read as a flag
                                      ["reduce", "double", "--poly", "g.json", "--m", "x"]])
    def test_bad_flag_value_is_one_schema_error(self, capsys, argv):
        code = run_command(argv)
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert code == 2 and out.err == ""
        assert rep["error"]["type"] == "SchemaError"

    def test_help_still_prints_help(self, capsys):
        assert run_command(["aat", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: aatkit aat")

    @pytest.mark.parametrize("argv", [["aat", "verify", "--poly", "{g}", "--fn", "{f}"],
                                      ["period", "find", "--poly", "{g}", "--fn", "{f}"]])
    def test_zero_relation_is_rejected(self, files, capsys, argv):
        # the zero polynomial relates nothing: it must not verify
        code = run_command([a.format(g=files["g_zero"], f=files["exp"]) for a in argv])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert code == 1 and out.err == ""
        assert rep["error"]["type"] == "PreconditionFailed"

    @pytest.mark.parametrize("omega,want", [("0", (1, "ShiftDegenerate")),
                                            ("0,0", (1, "ShiftDegenerate")),
                                            ("nan", (2, "SchemaError")),
                                            ("1,inf", (2, "SchemaError"))])
    def test_bad_period_is_one_typed_error(self, files, capsys, omega, want):
        code = run_command(["period", "verify", "--fn", files["exp"],
                            "--omega", omega])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert (code, rep["error"]["type"]) == want and out.err == ""


    @pytest.mark.parametrize("omega", ["800,0", "710.5,0"])
    def test_overflowing_period_samples_are_dropped(self, files, capsys, omega):
        # exp overflows at u + 800; at u + 710.5 the values that do not
        # overflow all exceed the 1e8 bound, so no sample is left either
        code = run_command(["period", "verify", "--fn", files["exp"],
                            "--omega", omega])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert (code, rep["error"]["type"]) == (1, "AllPointsSingular")
        assert out.err == ""

    def test_overflowing_element_is_one_typed_error(self, files, capsys):
        code = run_command(["aat", "verify", "--fn", files["exp_800"],
                            "--poly", files["g_exp"]])
        out = capsys.readouterr()
        rep = json.loads(out.out)
        assert (code, rep["error"]["type"]) == (1, "SingularCenter")
        assert "overflows" in rep["error"]["message"] and out.err == ""

    @pytest.mark.parametrize("argv", [
        ["aat", "verify", "--fn", "exp_700", "--poly", "g_exp"],
        ["aat", "discover", "--fn", "exp_700", "--bounds", "1,1,1"],
        ["reduce", "schwarz", "--fn", "exp_700", "--poly", "g_exp"]])
    def test_series_beyond_double_range_is_one_typed_error(self, files, capsys, argv):
        # exp(700) is finite, but products of the element's coefficients
        # leave the double range when they are read as complex numbers
        code = run_command([files.get(a, a) for a in argv])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert (code, rep["error"]["type"]) == (1, "NumericOverflow") and out.err == ""

    @pytest.mark.parametrize("argv,error", [
        (["aat", "discover", "--fn", "e1", "--bounds", "1,1,1"], "OrderTooLow"),
        (["aat", "verify", "--fn", "e1", "--poly", "g_exp"], "OrderTooLowForDegree"),
        (["reduce", "koebe", "--poly", "g_exp", "--p1", "e0", "--p2", "e0", "--p3", "e0"],
         "OrderTooLowForDegree")])
    def test_elements_shorter_than_the_order_are_one_typed_error(self, files, capsys,
                                                                 argv, error):
        # the engines judge the order the elements have (one coefficient, or
        # none), not the order requested on the command line
        code = run_command([files.get(a, a) for a in argv])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert (code, rep["error"]["type"]) == (1, error) and out.err == ""

    @pytest.mark.parametrize("argv,needle", [
        (["algebroid", "singular", "--curve", "short_re"], "[1]"),
        (["algebroid", "singular", "--curve", "short_exps"], "[2]"),
        (["aat", "verify", "--poly", "g_exp", "--fn", "short_coeff"], "[['1', '1']]"),
        (["aat", "verify", "--poly", "g_exp", "--fn", "short_float"], "[1.0]")])
    def test_malformed_json_term_is_a_schema_error(self, files, capsys, argv, needle):
        code = run_command([files.get(a, a) for a in argv])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert (code, rep["error"]["type"]) == (2, "SchemaError") and out.err == ""
        assert needle in rep["error"]["message"]


class TestSpecErrors:
    """Bad function specs give one typed JSON error, never a traceback."""

    @pytest.mark.parametrize("argv", [["aat", "verify", "--poly", "g_exp"],
                                      ["aat", "discover"]])
    def test_branch_out_of_range(self, files, capsys, argv):
        argv = [files.get(a, a) for a in argv] + ["--fn", files["sqrt_b7"]]
        code = run_command(argv)
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert code in (1, 2) and out.err == ""
        assert rep["error"]["type"] == "InvariantViolation"
        assert "branch index 7 out of range" in rep["error"]["message"]

    @pytest.mark.parametrize("name,message", [
        ("foo", "foo.json: unknown builtin 'foo'"),
        ("zero_den", "zero_den.json: zero denominator")])
    def test_loader_messages(self, files, capsys, name, message):
        code = run_command(["aat", "discover", "--fn", files[name]])
        out = capsys.readouterr()
        rep = json.loads(out.out)
        assert code == 2 and out.err == ""
        assert rep["error"]["type"] == "SchemaError"
        assert rep["error"]["message"] == str(files["root"] / message)


class TestReports:
    def test_expand_matches_reference(self, files, capsys):
        code, rep = run_json(["algebroid", "expand", "--curve", files["cubic"],
                              "--center", "0", "--order", "12"], capsys)
        assert code == 0
        b = rep["branches"]
        assert len(b) == 3
        polar = [x for x in b if x["low_exp"] == -1]
        assert len(polar) == 2 and all(x["ram_index"] == 2 for x in polar)
        regular = [x for x in b if x["ram_index"] == 1][0]
        assert abs(regular["coeffs"][0][0] + 1 / 3) < 1e-12
        assert all(x["residual_valuation"] is None for x in b)

    def test_singular_report(self, files, capsys):
        code, rep = run_json(["algebroid", "singular",
                              "--curve", files["cubic"]], capsys)
        assert code == 0
        locs = {tuple(p["location"]) if isinstance(p["location"], list)
                else p["location"] for p in rep["points"]}
        assert (0.0, 0.0) in locs and (1.0, 0.0) in locs and \
            (-1.0, 0.0) in locs and "infinity" in locs

    def test_pole_reports(self, files, capsys):
        # the pole at u = 1.5 of the probe curve, a simple zero of p0
        code, rep = run_json(["algebroid", "singular", "--curve", files["probe"]], capsys)
        assert code == 0
        assert {"location": [1.5, 0.0], "kind": "pole", "cycle_structure": [1, 1, 1],
                "source": "p0-zero"} in rep["points"]
        code, rep = run_json(["algebroid", "expand", "--curve", files["probe"],
                              "--center", "1.5"], capsys)
        assert code == 0
        assert sorted(b["low_exp"] for b in rep["branches"]) == [-1, 0, 0]

    def test_monodromy_cycles(self, files, capsys):
        code, rep = run_json(["algebroid", "monodromy", "--curve",
                              files["cubic"], "--around", "1",
                              "--base", "3"], capsys)
        assert code == 0
        assert sorted(len(c) for c in rep["cycles"]) == [3]
        assert sorted(rep["perm"]) == [1, 2, 3]  # 1-based indices

    def test_monodromy_default_base_stem(self, files, capsys):
        # the default base 5.516 lies on the real axis, and the straight
        # stem to the circle around 1.5 runs through the discriminant root
        # 1.5747 just before the circle start: the stem must detour
        code, rep = run_json(["algebroid", "monodromy", "--curve", files["stem"],
                              "--around", "1.5"], capsys)   # one JSON object
        assert code == 0
        assert rep["perm"] == [1, 2] and rep["cycles"] == [[1], [2]]

    def test_period_find(self, files, capsys):
        code, rep = run_json(["period", "find", "--fn", files["tan"],
                              "--poly", files["g_tan"], "--seed", "0"], capsys)
        assert code == 0
        assert rep["classification"] == "periodic"
        assert abs(rep["fundamental"][0] - math.pi) < 1e-9

    def test_period_find_cos_seed_one(self, files, capsys):
        # this search seed reduces a verified candidate to zero mid-sweep
        code = run_command(["period", "find", "--fn", files["cos"],
                            "--poly", files["g_cos"], "--seed", "1"])
        out = capsys.readouterr()
        rep = json.loads(out.out)  # exactly one JSON object
        assert code == 0 and out.err == ""
        assert rep["classification"] == "periodic"
        assert abs(complex(*rep["fundamental"]) - 2 * math.pi) < 1e-9
        # the candidate is -2 pi + 0j; its canonical sign has a +0.0 part
        assert math.copysign(1.0, rep["fundamental"][1]) == 1.0

    def test_reduce_double(self, files, capsys):
        code, rep = run_json(["reduce", "double", "--poly", files["dbl"],
                              "--m", "3"], capsys)
        assert code == 0
        exps = {tuple(t["exps"]) for t in rep["gamma"]["terms"]}
        assert exps == {(1, 0), (0, 8)}  # x and x3^8

    def test_provenance_echoed(self, files, capsys):
        _, rep = run_json(["--seed", "5", "aat", "verify",
                           "--poly", files["g_tan"], "--fn", files["tan"]],
                          capsys)
        assert rep["config"]["seed"] == 5
        assert rep["command"] == "aat verify"

    def test_env_seed_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("ATL_SEED", "99")
        _, rep = run_json(["aat", "verify", "--poly", files["g_tan"],
                           "--fn", files["tan"], "--seed", "5"], capsys)
        assert rep["config"]["seed"] == 99

    def test_text_format(self, files, capsys):
        code = run_command(["--format", "text", "aat", "verify",
                            "--poly", files["g_tan"], "--fn", files["tan"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: verified" in out


class TestReduceCommands:
    def test_koebe_from_series_files(self, files, capsys, tmp_path):
        import math
        from fractions import Fraction
        from aatkit.scalars import ExactScalar
        from aatkit.series import TruncSeries

        def elem(scale):
            coeffs = [ExactScalar(Fraction(scale, math.factorial(k)))
                      for k in range(16)]
            return TruncSeries(ExactScalar(0), coeffs, exact=True)

        p1 = tmp_path / "p1.json"
        p2 = tmp_path / "p2.json"
        p1.write_text(json.dumps(elem(1).to_json_dict()))
        p2.write_text(json.dumps(elem(2).to_json_dict()))
        code, rep = run_json(["reduce", "koebe", "--poly", files["g_exp"],
                              "--p1", str(p1), "--p2", str(p2),
                              "--p3", str(p2)], capsys)
        assert code == 0
        exps = {tuple(t["exps"]) for t in rep["gbar"]["terms"]}
        assert exps == {(1, 1, 0), (0, 0, 1)}  # UV and W

    def test_schwarz_report(self, files, capsys):
        code, rep = run_json(["reduce", "schwarz", "--poly", files["g_sin"],
                              "--fn", files["sin"], "--shifts", "0.3;0.15"],
                             capsys)
        assert code == 0
        assert rep["final_degree"] == 2
        assert rep["degrees"] == [4, 2]
        assert rep["invariance_residual"] < 1e-9
        assert rep["relation"] is not None

    def test_discover_explicit_bounds(self, files, capsys):
        code, rep = run_json(["aat", "discover", "--fn", files["sin"],
                              "--bounds", "1,1,1"], capsys)
        assert code == 1  # no multilinear relation for sin: explicit empty
        assert rep["kernel_dimension"] == 0


    def test_discover_builds_elements_once_per_order(self, files, capsys, monkeypatch):
        # cos: nothing at (1,1,1), its relation at (2,2,2), both at order 16,
        # then the round trip: one build of (U, V, W); --bounds 3,3,3 needs
        # order 22 and its own build
        from aatkit import aat, cli
        orders = []

        def spy(f, base, order):
            orders.append(order)
            return aat._elements_uvw(f, base, order)

        monkeypatch.setattr(cli, "_elements_uvw", spy)
        code, rep = run_json(["aat", "discover", "--fn", files["cos"]], capsys)
        assert code == 0 and rep["bounds_used"] == [2, 2, 2]
        assert rep["round_trip_verified"] == [True]
        assert orders == [16]
        code, rep = run_json(["aat", "discover", "--fn", files["cos"],
                              "--bounds", "3,3,3"], capsys)
        assert code == 0 and orders == [16, 22]


class TestRoundTripsAndDeterminism:
    def test_discovered_poly_feeds_verify(self, files, capsys, tmp_path):
        code, rep = run_json(["aat", "discover", "--fn", files["tan"]], capsys)
        assert code == 0 and rep["kernel_dimension"] == 1
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(rep["kernel"][0]))
        code2, rep2 = run_json(["aat", "verify", "--poly", str(gpath),
                                "--fn", files["tan"]], capsys)
        assert code2 == 0 and rep2["status"] == "verified"

    def test_byte_deterministic(self, files, capsys):
        argv = ["period", "find", "--fn", files["sin"],
                "--poly", files["g_sin"], "--seed", "0"]
        run_command(argv)
        out1 = capsys.readouterr().out
        run_command(argv)
        out2 = capsys.readouterr().out
        assert out1 == out2
