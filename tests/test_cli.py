import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glsx.cli import EXIT_BAD_INPUT, EXIT_OK, build_parser, run
from glsx.gls import exponent_grid

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def inputs(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "f": write("f.json", {"values": [1.0, -2.0, 3.0, 0.5]}),
        "psi": write("psi.json", {"kind": "power", "m": 2}),
        "psi48": write("psi48.json", {"kind": "boundary", "b": 8, "alpha": 0.5,
                                      "beta": 0.5, "domain": [4, 8]}),
        "nu12": write("nu12.json", {"kind": "boundary", "b": 2, "alpha": 0.5,
                                    "beta": 0.5}),
        "A": write("A.json", {"entries": [[8, 1, 6], [3, 5, 7], [4, 9, 2]]}),
        "W": write("W.json", {"kind": "integral", "s": 1, "weight": "const",
                              "interval": [4, 8]}),
        "R": write("R.json", {"kind": "integral", "s": 1, "weight": "const",
                              "interval": [1, 2]}),
        "dir": tmp_path,
    }


def out_path(inputs, name):
    return str(inputs["dir"] / name)


_not_a_number = st.one_of(st.booleans(), st.text(max_size=4), st.none(),
                          st.lists(st.floats(0.5, 2.0), max_size=2),
                          st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                          st.integers(min_value=10 ** 309, max_value=10 ** 400))
_not_a_list = st.one_of(st.text(max_size=4), st.floats(0.5, 2.0), st.integers(),
                        st.booleans(),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@st.composite
def malformed_function_specs(draw):
    """Function specs that are each wrong in one way."""
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6))
    weights = [1.0] * len(values)
    spec = {"values": values, "weights": weights}
    flaw = draw(st.sampled_from(["entry", "field", "range", "length", "shape"]))
    name = draw(st.sampled_from(["values", "weights"]))
    index = draw(st.integers(0, len(values) - 1))
    if flaw == "entry":
        spec[name][index] = draw(_not_a_number)
    elif flaw == "field":
        spec[name] = draw(_not_a_list if name == "weights" else st.one_of(_not_a_list,
                                                                           st.none()))
    elif flaw == "range":
        bad = (draw(st.sampled_from([math.nan, math.inf, -math.inf])) if name == "values"
               else draw(st.sampled_from([0.0, -1.0, math.nan, math.inf])))
        spec[name][index] = bad
    elif flaw == "length":
        spec[name] = spec[name] + [1.0] if draw(st.booleans()) else []
    else:
        spec = draw(st.one_of(st.just({"weights": weights}), st.lists(st.floats(), max_size=2),
                              st.text(max_size=4), st.integers()))
    return spec


@st.composite
def malformed_matrix_specs(draw, weights=True):
    """Matrix specs whose entries (or, with ``weights``, whose ``mu`` or
    ``nu``) are wrong in one way."""
    entries = [[1.0, 2.0], [3.0, 4.0]]
    spec = {"entries": entries, "mu": [1.0, 1.0], "nu": [1.0, 1.0]}
    flaws = ["entry", "row", "field", "shape"] + (["weight"] if weights else [])
    flaw = draw(st.sampled_from(flaws))
    i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    if flaw == "entry":
        entries[i][j] = draw(_not_a_number)
    elif flaw == "row":
        entries[i] = draw(st.one_of(_not_a_list, st.just([1.0]), st.just([1.0, 2.0, 3.0])))
    elif flaw == "field":
        spec["entries"] = draw(st.one_of(_not_a_list, st.just([]), st.just([1.0, 2.0])))
    elif flaw == "weight":
        name = draw(st.sampled_from(["mu", "nu"]))
        if draw(st.booleans()):
            spec[name][j] = draw(_not_a_number)
        else:
            spec[name] = draw(_not_a_list)
    else:
        spec = draw(st.one_of(st.just({"mu": [1.0, 1.0]}), st.lists(st.floats(), max_size=2),
                              st.text(max_size=4), st.integers()))
    return spec


@st.composite
def malformed_psi_specs(draw):
    """Generating-function specs that are wrong in one way."""
    spec = draw(st.sampled_from([{"kind": "power", "m": 2},
                                 {"kind": "boundary", "b": 8, "alpha": 0.5, "beta": 0.5,
                                  "domain": [4, 8]}]))
    flaw = draw(st.sampled_from(["field", "missing", "kind", "domain", "shape"]))
    fields = [k for k in spec if k not in ("kind", "domain")]
    if flaw == "field":
        spec[draw(st.sampled_from(fields))] = draw(_not_a_number)
    elif flaw == "missing":
        del spec[draw(st.sampled_from(fields))]
    elif flaw == "kind":
        spec["kind"] = draw(st.one_of(_not_a_number, st.just("mystery")))
    elif flaw == "domain":
        # b may be "inf" or null, a may not
        spec["domain"] = draw(st.one_of(
            _not_a_list, st.just([4]), st.just([4, 8, 9]),
            st.tuples(_not_a_number, st.just(8)).map(list),
            st.tuples(st.just(4), _not_a_number.filter(lambda x: x not in (None, "inf")))
            .map(list)))
    else:
        spec = draw(st.one_of(st.just({"m": 2}), st.lists(st.floats(), max_size=2),
                              st.text(max_size=4), st.integers()))
    return spec


@st.composite
def malformed_moment_specs(draw):
    """Integral moment-norm specs that are wrong in one way."""
    spec = {"kind": "integral", "s": 1, "weight": "const", "interval": [4, 8]}
    flaw = draw(st.sampled_from(["s", "interval", "missing"]))
    if flaw == "s":
        spec["s"] = draw(_not_a_number)
    elif flaw == "interval":
        # as for a psi domain: b may be "inf" or null, a may not
        spec["interval"] = draw(st.one_of(
            _not_a_list, st.just([4]), st.just([4, 8, 9]),
            st.tuples(_not_a_number, st.just(8)).map(list),
            st.tuples(st.just(4), _not_a_number.filter(lambda x: x not in (None, "inf")))
            .map(list)))
    else:
        del spec["interval"]
    return spec


class TestBasicCommands:
    def test_gls_norm(self, inputs, capsys):
        out = out_path(inputs, "r.json")
        code = run(["gls-norm", "--function", inputs["f"], "--psi", inputs["psi"],
                    "--grid-points", "128", "--output", out])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == {"norm", "argmax_p", "endpoint_flag"}
        report = json.loads(open(out).read())
        assert report["result"]["norm"] == printed["norm"]
        assert report["config"]["grid_points"] == 128

    def test_fundamental(self, inputs, capsys):
        code = run(["fundamental", "--psi", inputs["psi"], "--delta", "9",
                    "--output", out_path(inputs, "fund.json")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["value"] > 0

    def test_fenchel_tail_csv(self, inputs):
        out = out_path(inputs, "tail.csv")
        code = run(["fenchel-tail", "--function", inputs["f"], "--psi",
                    inputs["psi"], "--t", "e,5,10,100", "--normalize",
                    "--output", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "t,tail,bound,ok"
        assert len(lines) == 5

    def test_fenchel_tail_rejects_unnormalized(self, inputs, capsys):
        code = run(["fenchel-tail", "--function", inputs["f"], "--psi",
                    inputs["psi"], "--t", "e",
                    "--output", out_path(inputs, "t.csv")])
        assert code == 2

    def test_fenchel_tail_cannot_normalize_zero(self, inputs, capsys):
        zero = inputs["dir"] / "zero.json"
        zero.write_text(json.dumps({"values": [0.0, 0.0, 0.0]}))
        assert run(["fenchel-tail", "--function", str(zero), "--psi", inputs["psi"],
                    "--t", "e", "--normalize", "--output", out_path(inputs, "t.csv")]) == 2
        assert "cannot normalize the zero function" in capsys.readouterr().err

    def test_opnorm_ascent_and_oracle(self, inputs, capsys):
        code = run(["opnorm", "--matrix", inputs["A"], "--q", "2", "--p", "4",
                    "--output", out_path(inputs, "o1.json")])
        assert code == 0
        ascent = json.loads(capsys.readouterr().out)
        code = run(["opnorm", "--matrix", inputs["A"], "--q", "2", "--p", "4",
                    "--oracle", "--resolution", "240",
                    "--output", out_path(inputs, "o2.json")])
        assert code == 0
        oracle = json.loads(capsys.readouterr().out)
        assert ascent["value"] == pytest.approx(oracle["value"], rel=1e-4)
        assert (ascent["method"], oracle["method"]) == ("ascent", "oracle")

    def test_opnorm_inf_exponent(self, inputs, capsys):
        # a corner pair: the largest entry, by closed form
        code = run(["opnorm", "--matrix", inputs["A"], "--q", "1", "--p", "inf",
                    "--output", out_path(inputs, "o3.json")])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["value"] == pytest.approx(9.0)
        assert result["method"] == "closed-form"

    def test_minimal_constant(self, inputs, capsys):
        code = run(["minimal-constant", "--matrix", inputs["A"], "--sigma", "3",
                    "--p-interval", "4:8", "--q-interval", "1:2",
                    "--output", out_path(inputs, "mc.json")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["cbar"] > 0

    def test_minimal_constant_counting_corner(self, inputs, capsys):
        # counting measures with sigma >= 1 run the corner (p_min, q_max) alone
        assert run(["minimal-constant", "--matrix", inputs["A"], "--sigma", "3",
                    "--p-interval", "4:8", "--q-interval", "1:2",
                    "--output", out_path(inputs, "mc.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["argmax_p"] == 4.0
        assert out["argmax_q"] == exponent_grid(1, 2, 17)[-1]
        # the value of the full 17 x 17 grid run
        assert out["cbar"] == pytest.approx(8.660249280712561, rel=1e-15, abs=0.0)


# every command's options but --output and --format, which all of them take;
# the shared --seed, --grid-points, --samples and --tolerance only where read
_VERIFY = {"--matrix", "--sigma", "--c", "--restarts", "--seed", "--grid-points",
           "--samples", "--tolerance"}
_SQUARE = {"--order", "--kind", "--alpha", "--resolution"}
_OPTIONS = {
    "gls-norm": {"--function", "--psi", "--grid-points"},
    "fundamental": {"--psi", "--delta", "--grid-points"},
    "fenchel-tail": {"--function", "--psi", "--t", "--normalize", "--grid-points",
                     "--tolerance"},
    "opnorm": {"--matrix", "--q", "--p", "--oracle", "--restarts", "--resolution",
               "--seed"},
    "minimal-constant": {"--matrix", "--sigma", "--p-interval", "--q-interval", "--seed",
                         "--grid-points", "--samples"},
    "verify-theorem1": {"--psi", "--nu", *_VERIFY},
    "verify-theorem2": {"--w-norm", "--r-norm", *_VERIFY},
    "magic": {"--validate", "--check-norms", "--convention", *_SQUARE},
    "check-super-exact": {"--matrix", "--pairs", *_SQUARE},
}
_SHARED = {"--seed", "--grid-points", "--samples", "--tolerance"}


# every subcommand that writes a report: its argv (input files named by their
# fixture key), the exit code, and columns its CSV must hold
_REPORTS = {
    "gls-norm": (["gls-norm", "--function", "f", "--psi", "psi"], 0,
                 {"norm", "argmax_p", "endpoint_flag"}),
    "fundamental": (["fundamental", "--psi", "psi", "--delta", "9"], 0, {"value", "delta"}),
    "fenchel-tail": (["fenchel-tail", "--function", "f", "--psi", "psi", "--t", "e,10",
                      "--normalize"], 0, {"t", "tail", "bound", "ok"}),
    "opnorm-ascent": (["opnorm", "--matrix", "A", "--q", "2", "--p", "4",
                       "--restarts", "4"], 0, {"value", "method", "q", "p"}),
    "opnorm-oracle": (["opnorm", "--matrix", "A", "--q", "2", "--p", "4", "--oracle",
                       "--resolution", "60"], 0, {"value", "method", "q", "p"}),
    "minimal-constant": (["minimal-constant", "--matrix", "A", "--sigma", "3",
                          "--p-interval", "4:8", "--q-interval", "1:2"], 0,
                         {"cbar", "argmax_p", "argmax_q"}),
    "verify-theorem1": (["verify-theorem1", "--matrix", "A", "--psi", "psi48", "--nu",
                         "nu12", "--sigma", "3", "--samples", "50", "--restarts", "2"], 0,
                        {"passed", "max_lhs_rhs_ratio", "cbar"}),
    "verify-theorem2": (["verify-theorem2", "--matrix", "A", "--w-norm", "W", "--r-norm",
                         "R", "--sigma", "3", "--samples", "50", "--restarts", "2"], 0,
                        {"passed", "max_lhs_rhs_ratio", "cbar"}),
    "failed-certificate": (["verify-theorem1", "--matrix", "A", "--psi", "psi48", "--nu",
                            "nu12", "--sigma", "3", "--c", "0.5", "--samples", "50",
                            "--restarts", "2"], 1, {"holds", "worst_ratio"}),
    "magic-validate": (["magic", "--validate", "A"], 0, {"line", "sum", "deviation"}),
    "magic-check-norms": (["magic", "--order", "3", "--check-norms", "1:2",
                           "--resolution", "30"], 0, {"q", "p", "oracle", "match"}),
    "check-super-exact": (["check-super-exact", "--matrix", "A", "--pairs", "1:2",
                           "--resolution", "30"], 0, {"q", "p", "oracle", "match"}),
}


class TestReports:
    @pytest.mark.parametrize("case", list(_REPORTS))
    def test_csv_exits_as_json_and_holds_scalar_rows(self, inputs, capsys, case):
        argv, code, columns = _REPORTS[case]
        argv = [inputs.get(token, token) for token in argv]
        for fmt in ("json", "csv"):
            assert run([*argv, "--format", fmt,
                        "--output", out_path(inputs, f"report.{fmt}")]) == code, fmt
        with open(out_path(inputs, "report.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2 and columns <= set(rows[0])
        # lists (witnesses, violations, grids) appear only in the JSON
        assert not any(cell.startswith("[") for row in rows for cell in row)
        # the config records the shared options its command declares, but --output
        config = json.loads(open(out_path(inputs, "report.json")).read())["config"]
        recorded = {"--" + key.replace("_", "-") for key in config}
        assert recorded & _SHARED == _OPTIONS[argv[0]] & _SHARED
        assert config["format"] == "json" and "output" not in config


class TestOptions:
    def test_each_command_declares_only_what_it_reads(self):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert set(commands) == set(_OPTIONS)
        declared = {name: {o for a in p._actions if not isinstance(a, argparse._HelpAction)
                           for o in a.option_strings}
                    for name, p in commands.items()}
        assert declared == {name: {*opts, "--output", "--format"}
                            for name, opts in _OPTIONS.items()}
        assert sum(map(len, declared.values())) == 77

    @pytest.mark.parametrize("argv", [
        ["gls-norm", "--function", "f", "--psi", "psi", "--samples", "5"],
        ["check-super-exact", "--order", "3", "--pairs", "1:2", "--seed", "1"],
    ], ids=["gls-norm", "check-super-exact"])
    def test_undeclared_option_is_a_usage_error(self, inputs, capsys, argv):
        assert run([inputs.get(token, token) for token in argv]) == EXIT_BAD_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_usage_errors_and_help_return_their_exit_codes(self, capsys):
        assert run(["opnorm", "--q", "2", "--p", "2"]) == EXIT_BAD_INPUT  # no --matrix
        assert "required" in capsys.readouterr().err
        assert run(["no-such-command"]) == EXIT_BAD_INPUT
        assert run(["--help"]) == EXIT_OK
        assert run(["opnorm", "--help"]) == EXIT_OK
        assert "--matrix" in capsys.readouterr().out

    def test_readme_commands_parse(self):
        # README's CLI block names only options its commands declare
        text = README.read_text(encoding="utf-8")
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line.replace("[", "").replace("]", ""), comments=True)
                    for line in lines if line.startswith("glsx ")]
        assert {argv[1] for argv in commands} == set(_OPTIONS)
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])


class TestVerifyCommands:
    def test_verify_theorem1_identity(self, inputs, capsys):
        ident = str(inputs["dir"] / "ident.json")
        with open(ident, "w") as fh:
            json.dump({"entries": [[1, 0], [0, 1]]}, fh)
        out = out_path(inputs, "vi.json")
        code = run(["verify-theorem1", "--matrix", ident, "--psi",
                    inputs["psi48"], "--nu", inputs["nu12"], "--sigma", "1",
                    "--samples", "100", "--c", "1.5", "--restarts", "4",
                    "--output", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["result"]["passed"] is True
        assert report["config"]["restarts"] == 4
        assert report["config"]["c"] == 1.5

    def test_verify_theorem1(self, inputs, capsys):
        out = out_path(inputs, "v1.json")
        code = run(["verify-theorem1", "--matrix", inputs["A"], "--psi",
                    inputs["psi48"], "--nu", inputs["nu12"], "--sigma", "3",
                    "--samples", "200", "--seed", "7", "--output", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["result"]["passed"] is True
        assert report["result"]["violations"] == []

    def test_verify_theorem2(self, inputs):
        out = out_path(inputs, "v2.json")
        code = run(["verify-theorem2", "--matrix", inputs["A"], "--w-norm",
                    inputs["W"], "--r-norm", inputs["R"], "--sigma", "3",
                    "--samples", "200", "--seed", "7", "--grid-points", "17",
                    "--output", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["result"]["passed"] is True
        config = report["config"]
        assert config["w_norm"] == json.loads(open(inputs["W"]).read())
        assert config["r_norm"] == json.loads(open(inputs["R"]).read())
        assert len(config["p_points"]) == len(config["q_points"]) == 17

    def test_verify_theorem2_warns_on_unordered_supports(self, inputs, capsys):
        # W's interval [1.5, 3] starts below the end of R's [1, 2]: a warning, not an error
        W = inputs["dir"] / "W15.json"
        W.write_text(json.dumps({"kind": "integral", "s": 1, "weight": "const",
                                 "interval": [1.5, 3]}))
        assert run(["verify-theorem2", "--matrix", inputs["A"], "--w-norm", str(W),
                    "--r-norm", inputs["R"], "--sigma", "3", "--samples", "50",
                    "--output", out_path(inputs, "v2w.json")]) == 0
        assert capsys.readouterr().err.startswith(
            "warning: moment supports are not ordered")

    def test_failed_certificate_report_keeps_config(self, inputs, capsys):
        out = out_path(inputs, "vfail.json")
        code = run(["verify-theorem1", "--matrix", inputs["A"], "--psi",
                    inputs["psi48"], "--nu", inputs["nu12"], "--sigma", "3",
                    "--c", "0.5", "--restarts", "2", "--samples", "50",
                    "--output", out])
        assert code == 1
        report = json.loads(open(out).read())
        assert report["sigma_condition"]["holds"] is False
        assert "result" not in report
        assert report["config"]["matrix"] == inputs["A"]
        assert report["config"]["c"] == 0.5
        assert report["config"]["psi"]["kind"] == "boundary"


class TestMagicCommands:
    def test_build_then_validate(self, inputs, capsys):
        square = out_path(inputs, "sq.json")
        assert run(["magic", "--order", "4", "--output", square]) == 0
        capsys.readouterr()
        assert run(["magic", "--validate", square,
                    "--output", out_path(inputs, "val.csv")]) == 0

    def test_validate_rejects_broken_square(self, inputs, capsys):
        bad = out_path(inputs, "bad.json")
        with open(bad, "w") as fh:
            json.dump({"entries": [[1, 0], [0, 1]]}, fh)
        assert run(["magic", "--validate", bad,
                    "--output", out_path(inputs, "valbad.csv")]) == 1

    def test_check_norms_table(self, inputs, capsys):
        out = out_path(inputs, "table.csv")
        code = run(["magic", "--order", "3", "--check-norms", "1:2,2:4",
                    "--convention", "both", "--resolution", "120",
                    "--output", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 1 + 2 * 4  # header + pairs x conventions x orderings

    def test_check_super_exact(self, inputs, capsys):
        out = out_path(inputs, "super.csv")
        code = run(["check-super-exact", "--order", "3", "--pairs", "1:inf,2:4",
                    "--resolution", "120", "--output", out])
        assert code == 0
        text = open(out).read()
        assert "True" in text  # at least one matching combination recorded

    def test_convention_table_config_names_the_square(self, inputs, capsys):
        # two runs that differ in one option write different config blocks
        transposed = out_path(inputs, "AT.json")
        with open(transposed, "w") as fh:
            json.dump({"entries": [[8, 3, 4], [1, 5, 9], [6, 7, 2]]}, fh)
        table = ["check-super-exact", "--pairs", "1:2", "--resolution", "30"]
        norms = ["magic", "--order", "3", "--check-norms", "1:2", "--resolution", "30"]
        pairs = [([*table, "--matrix", inputs["A"]], [*table, "--matrix", transposed]),
                 ([*table, "--order", "4"], [*table, "--order", "4", "--kind", "doubly-even"]),
                 ([*table, "--order", "3", "--alpha", "2"],
                  [*table, "--order", "3", "--alpha", "3"]),
                 ([*norms, "--convention", "counting"], [*norms, "--convention", "both"])]
        out = out_path(inputs, "table.json")
        for argvs in pairs:
            configs = []
            for argv in argvs:
                assert run([*argv, "--format", "json", "--output", out]) == 0
                configs.append(json.loads(open(out).read())["config"])
            assert configs[0] != configs[1], argvs

    @pytest.mark.parametrize("extra, named", [
        (["--order", "4", "--kind", "doubly-even"], "--order, --kind"),
        (["--alpha", "2"], "--alpha"),
        (["--order", "3"], "--order"),
        (["--kind", "siamese"], "--kind"),
    ])
    def test_matrix_conflicts_with_square_options(self, inputs, capsys, extra, named):
        # the JSON square would silently win while the config recorded the rest
        out = out_path(inputs, "conflict.json")
        assert run(["check-super-exact", "--matrix", inputs["A"], "--pairs", "1:2",
                    "--resolution", "30", *extra, "--format", "json",
                    "--output", out]) == 2
        assert f"cannot be combined with {named}" in capsys.readouterr().err
        assert run(["check-super-exact", "--matrix", inputs["A"], "--pairs", "1:2",
                    "--resolution", "30", "--kind", "auto", "--format", "json",
                    "--output", out]) == 0

    def test_singly_even_rejected(self, inputs):
        assert run(["magic", "--order", "6",
                    "--output", out_path(inputs, "x.json")]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["magic"], "either --order or a square JSON file is required"),
        (["check-super-exact", "--pairs", "1:2"],
         "either --order or a square JSON file is required"),
        (["magic", "--order", "3", "--kind", "uniform"],
         "--alpha is required for uniform squares"),
    ], ids=["magic", "check-super-exact", "uniform-without-alpha"])
    def test_square_options_are_required(self, inputs, capsys, argv, message):
        assert run([*argv, "--output", out_path(inputs, "x.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestErrorHandling:
    def test_missing_file(self, inputs, capsys):
        assert run(["gls-norm", "--function", "nope.json", "--psi",
                    inputs["psi"], "--output", out_path(inputs, "x.json")]) == 2

    def test_malformed_psi(self, inputs, tmp_path, capsys):
        bad = tmp_path / "bad_psi.json"
        # an unknown kind, and a field of the wrong type
        for spec in ({"kind": "mystery"}, {"kind": "power", "m": [1, 2]}):
            bad.write_text(json.dumps(spec))
            assert run(["gls-norm", "--function", inputs["f"], "--psi", str(bad),
                        "--output", out_path(inputs, "x.json")]) == 2

    def test_endpoint_flagged_normalization(self, inputs, tmp_path, capsys):
        # this psi's fundamental value at 1/sigma peaks at the last grid point
        psi = tmp_path / "psi_flag.json"
        psi.write_text(json.dumps({"kind": "boundary", "b": 8, "alpha": 1,
                                   "beta": 0, "domain": [4, 8]}))
        assert run(["verify-theorem1", "--matrix", inputs["A"], "--psi", str(psi),
                    "--nu", inputs["nu12"], "--sigma", "2", "--samples", "50",
                    "--output", out_path(inputs, "x.json")]) == 2
        assert "last grid point" in capsys.readouterr().err

    def test_negative_start_count(self, inputs, capsys):
        assert run(["minimal-constant", "--matrix", inputs["A"], "--sigma", "3",
                    "--p-interval", "4:8", "--q-interval", "1:2", "--samples", "-1",
                    "--output", out_path(inputs, "x.json")]) == 2
        assert "samples" in capsys.readouterr().err
        assert run(["verify-theorem1", "--matrix", inputs["A"], "--psi", inputs["psi48"],
                    "--nu", inputs["nu12"], "--sigma", "3", "--restarts", "-1",
                    "--output", out_path(inputs, "x.json")]) == 2
        assert "samples" in capsys.readouterr().err
        for command, norms in (("verify-theorem1", ["--psi", inputs["psi48"],
                                                    "--nu", inputs["nu12"]]),
                               ("verify-theorem2", ["--w-norm", inputs["W"],
                                                    "--r-norm", inputs["R"]])):
            assert run([command, "--matrix", inputs["A"], *norms, "--sigma", "3",
                        "--samples", "-1", "--restarts", "2",
                        "--output", out_path(inputs, "x.json")]) == 2
            assert "samples" in capsys.readouterr().err

    def test_overflow_is_bad_input_not_violation(self, inputs, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"entries": [[1e308, 1e308], [1e308, 1e308]]}))
        out = out_path(inputs, "huge_report.json")
        assert run(["verify-theorem1", "--matrix", str(huge), "--psi", inputs["psi48"],
                    "--nu", inputs["nu12"], "--sigma", "3", "--samples", "50",
                    "--output", out]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_norm_overflow_names_the_exponent(self, inputs, tmp_path, capsys):
        huge = tmp_path / "huge_f.json"
        huge.write_text(json.dumps({"values": [1e308, 1e308], "weights": [1e308, 1e308]}))
        for command, extra in (("gls-norm", []),
                               ("fenchel-tail", ["--t", "e", "--normalize"])):
            assert run([command, "--function", str(huge), "--psi", inputs["psi"], *extra,
                        "--output", out_path(inputs, "x.json")]) == 2
            assert "Lp norm of f is not finite at p = 1.0" in capsys.readouterr().err

    def test_non_numeric_function_entries(self, inputs, tmp_path, capsys):
        bad = tmp_path / "bad_f.json"
        for spec, field in (({"values": [True, False]}, "values"),
                            ({"values": ["1.5"]}, "values"),
                            ({"values": [1.0, 2.0], "weights": [1, True]}, "weights"),
                            ({"values": [1.0], "weights": ["0.5"]}, "weights")):
            bad.write_text(json.dumps(spec))
            for command, extra in (("gls-norm", []),
                                   ("fenchel-tail", ["--t", "e", "--normalize"])):
                assert run([command, "--function", str(bad), "--psi", inputs["psi"],
                            *extra, "--output", out_path(inputs, "x.json")]) == 2
                assert f'"{field}" must be a list of numbers' in capsys.readouterr().err

    @given(spec=malformed_function_specs(), matrix=malformed_matrix_specs(),
           square=malformed_matrix_specs(weights=False), psi_spec=malformed_psi_specs(),
           moment_spec=malformed_moment_specs())
    def test_malformed_function_specs(self, spec, matrix, square, psi_spec, moment_spec):
        # every malformed spec is bad input: exit 2 and a one-line message
        with tempfile.TemporaryDirectory() as tmp:
            def write(name, payload):
                path = Path(tmp) / name
                path.write_text(json.dumps(payload))
                return str(path)

            f = write("f.json", spec)
            psi = write("psi.json", {"kind": "power", "m": 2})
            A = write("A3.json", {"entries": [[8, 1, 6], [3, 5, 7], [4, 9, 2]]})
            W = write("W.json", {"kind": "integral", "s": 1, "interval": [4, 8]})
            R = write("R.json", {"kind": "integral", "s": 1, "interval": [1, 2]})
            bad_moment = write("bad_moment.json", moment_spec)
            out = str(Path(tmp) / "out.json")
            runs = [["gls-norm", "--function", f, "--psi", psi],
                    ["fenchel-tail", "--function", f, "--psi", psi, "--t", "e",
                     "--normalize"],
                    ["opnorm", "--matrix", write("A.json", matrix), "--q", "2", "--p", "2"],
                    ["gls-norm", "--function", write("g.json", {"values": [1.0, -2.0]}),
                     "--psi", write("bad_psi.json", psi_spec)],
                    ["check-super-exact", "--matrix", write("M.json", square),
                     "--pairs", "1:2"],
                    ["verify-theorem2", "--matrix", A, "--w-norm", bad_moment,
                     "--r-norm", R, "--sigma", "3"],
                    ["verify-theorem2", "--matrix", A, "--w-norm", W,
                     "--r-norm", bad_moment, "--sigma", "3"]]
            for argv in runs:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = run([*argv, "--output", out])
                assert code == 2, argv
                assert err.getvalue().startswith("error: ")
                assert "Traceback" not in err.getvalue()

    def test_non_number_specs_name_their_field(self, inputs, capsys):
        # JSON booleans and strings are not numbers, though float() takes them
        cases = [("opnorm", "--matrix", {"entries": [[True, False], [False, True]]},
                  'matrix spec "entries"'),
                 ("opnorm", "--matrix", {"entries": [["1", "0"], ["0", "1"]]},
                  'matrix spec "entries"'),
                 ("opnorm", "--matrix", {"entries": [[1, 0], [0, 1]], "nu": [True, True]},
                  'matrix spec "nu"'),
                 ("gls-norm", "--psi", {"kind": "power", "m": True},
                  'generating function spec "m"'),
                 ("gls-norm", "--psi", {"kind": "power", "m": "2"},
                  'generating function spec "m"'),
                 ("gls-norm", "--psi", {"kind": "power", "m": 2, "domain": ["4", 8]},
                  'generating function spec "domain"'),
                 ("check-super-exact", "--matrix",
                  {"entries": [[8, 1, 6], [3, 5, 7], [4, 9, "2"]]},
                  'magic square spec "entries"'),
                 ("magic", "--validate", {"entries": [[True]]},
                  'magic square spec "entries"'),
                 ("magic", "--validate",
                  {"entries": [["8", "1", "6"], ["3", "5", "7"], ["4", "9", "2"]]},
                  'magic square spec "entries"'),
                 ("verify-theorem2", "--w-norm",
                  {"kind": "integral", "s": True, "interval": [4, 8]},
                  'moment norm spec "s"'),
                 ("verify-theorem2", "--r-norm",
                  {"kind": "integral", "s": "2", "interval": [1, 2]},
                  'moment norm spec "s"'),
                 ("verify-theorem2", "--w-norm",
                  {"kind": "integral", "s": 1, "interval": [4, "8"]},
                  'moment norm spec "interval" b'),
                 ("verify-theorem2", "--r-norm",
                  {"kind": "integral", "s": 1, "interval": [True, 2]},
                  'moment norm spec "interval" a'),
                 ("verify-theorem2", "--w-norm",
                  {"kind": "integral", "s": 1, "interval": [4, 8, 9]},
                  'moment norm spec "interval"'),
                 ("verify-theorem2", "--r-norm",
                  {"kind": "integral", "s": 1, "interval": 4},
                  'moment norm spec "interval"')]
        # the malformed spec comes last, so it replaces a well-formed one
        args = {"opnorm": ["--q", "2", "--p", "2"],
                "gls-norm": ["--function", inputs["f"]],
                "check-super-exact": ["--pairs", "1:2"],
                "magic": [],
                "verify-theorem2": ["--matrix", inputs["A"], "--w-norm", inputs["W"],
                                    "--r-norm", inputs["R"], "--sigma", "3"]}
        for command, option, spec, field in cases:
            path = inputs["dir"] / "spec.json"
            path.write_text(json.dumps(spec))
            assert run([command, *args[command], option, str(path),
                        "--output", out_path(inputs, "x.json")]) == 2
            assert field in capsys.readouterr().err

    def test_oversized_oracle_grid_is_bad_input(self, inputs, capsys, monkeypatch):
        # a real allocation of that size is not made: the grid builder raises
        from glsx import opnorm

        def too_large(n, resolution):
            raise MemoryError(f"Unable to allocate a ({n}, {resolution}) grid")

        monkeypatch.setattr(opnorm, "_oracle_directions", too_large)
        assert run(["opnorm", "--matrix", inputs["A"], "--q", "2", "--p", "2",
                    "--oracle", "--resolution", "100000",
                    "--output", out_path(inputs, "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_non_finite_threshold(self, inputs, capsys):
        for ts, bad in (("nan", "nan"), ("3,inf", "inf")):
            assert run(["fenchel-tail", "--function", inputs["f"], "--psi",
                        inputs["psi"], "--t", ts, "--normalize",
                        "--output", out_path(inputs, "t.csv")]) == 2
            err = capsys.readouterr().err
            assert "thresholds must be finite" in err and f"got {bad}" in err

    def test_grid_point_count(self, inputs, capsys):
        for command, args in (("gls-norm", ["--function", inputs["f"]]),
                              ("fundamental", ["--delta", "9"]),
                              ("fenchel-tail", ["--function", inputs["f"], "--t", "e",
                                                "--normalize"])):
            for count in ("-1", "0"):
                assert run([command, *args, "--psi", inputs["psi"],
                            "--grid-points", count,
                            "--output", out_path(inputs, "x.json")]) == 2
                err = capsys.readouterr().err
                assert f"point count must be >= 1, got {count}" in err

    def test_malformed_options_are_named(self, inputs, capsys):
        A = ["--matrix", inputs["A"]]
        mc = ["minimal-constant", *A, "--sigma", "3"]
        cases = [(["opnorm", *A, "--q", "2", "--p", "2", "--seed", "-1"], "--seed"),
                 (["opnorm", *A, "--q", "2", "--p", "2", "--oracle", "--seed", "-1"],
                  "--seed"),
                 ([*mc, "--p-interval", "4,8", "--q-interval", "1:2"], "--p-interval"),
                 ([*mc, "--p-interval", "4:8", "--q-interval", "1:x"], "--q-interval"),
                 # an empty or reversed interval, or one below 1, is not a grid
                 ([*mc, "--p-interval", "8:4", "--q-interval", "1:2"], "--p-interval"),
                 ([*mc, "--p-interval", "4:4", "--q-interval", "1:2"], "--p-interval"),
                 ([*mc, "--p-interval", "0.5:2", "--q-interval", "1:2"], "--p-interval"),
                 ([*mc, "--p-interval", "4:8", "--q-interval", "inf:inf"], "--q-interval"),
                 (["check-super-exact", "--order", "3", "--pairs", "1:2,4,8"], "--pairs"),
                 (["magic", "--order", "3", "--check-norms", "1:2:4"], "--check-norms")]
        for argv, option in cases:
            assert run([*argv, "--output", out_path(inputs, "x.json")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {option} ") and err.count("\n") == 1

    def test_bad_exponent(self, inputs, capsys):
        assert run(["opnorm", "--matrix", inputs["A"], "--q", "0.5", "--p", "2",
                    "--output", out_path(inputs, "x.json")]) == 2


class TestDeterminism:
    def test_verify_report_bytes_stable(self, inputs, capsys):
        out1 = out_path(inputs, "d1.json")
        out2 = out_path(inputs, "d2.json")
        for out in (out1, out2):
            assert run(["verify-theorem1", "--matrix", inputs["A"], "--psi",
                        inputs["psi48"], "--nu", inputs["nu12"], "--sigma", "3",
                        "--samples", "100", "--seed", "11", "--output", out]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_thread_cap_does_not_change_bytes(self, inputs, capsys, monkeypatch):
        out1 = out_path(inputs, "t1.csv")
        out2 = out_path(inputs, "t2.csv")
        monkeypatch.setenv("GLSX_THREADS", "1")
        assert run(["check-super-exact", "--order", "3", "--pairs", "1:2",
                    "--resolution", "60", "--output", out1]) == 0
        monkeypatch.setenv("GLSX_THREADS", "4")
        assert run(["check-super-exact", "--order", "3", "--pairs", "1:2",
                    "--resolution", "60", "--output", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()


class TestReportBytes:
    """sha256 of whole JSON reports of one weighted operator, pinned so a
    change to how the verify commands sample and tabulate norms cannot move
    a byte.  At 100 samples the certificate check (``min(samples, 200)``
    samples) and the verification draw the same table; at 1000 they do not."""

    DIGESTS = {
        ("verify-theorem1", "100"): "fb6ecf29105a0f13449b2718a82ec0edb3da20f663ace98d8eb07a0bf3e9231a",
        ("verify-theorem1", "1000"): "f3c84b0e491ad2fb9cceae5b6a4c4a3537b33986dce06b49d73839a2a9bcee85",
        ("verify-theorem2", "100"): "90a07b1f6a2ffa13d8a973520552cdc368d820d57fb021019d055185b53228f7",
        ("verify-theorem2", "1000"): "5ab97a7454547d8e9665ae821e32dd5288a78798f10ffb0d8a02885b8c6ed1d4",
    }

    @pytest.mark.parametrize("command, samples", sorted(DIGESTS))
    def test_weighted_verify_report_digest(self, tmp_path, monkeypatch, capsys,
                                           command, samples):
        monkeypatch.chdir(tmp_path)  # the report records the input file names
        specs = {"A.json": {"entries": [[8, 1, 6], [3, 5, 7], [4, 9, 2]],
                            "mu": [0.5, 1.0, 2.0], "nu": [1.5, 0.25, 1.0]},
                 "psi.json": {"kind": "boundary", "b": 8, "alpha": 0.5, "beta": 0.5,
                              "domain": [4, 8]},
                 "nu.json": {"kind": "boundary", "b": 2, "alpha": 0.5, "beta": 0.5},
                 "W.json": {"kind": "integral", "s": 1, "weight": "const",
                            "interval": [4, 8]},
                 "R.json": {"kind": "integral", "s": 2, "weight": "const",
                            "interval": [1, 2]}}
        for name, spec in specs.items():
            Path(name).write_text(json.dumps(spec))
        norms = (["--psi", "psi.json", "--nu", "nu.json"] if command == "verify-theorem1"
                 else ["--w-norm", "W.json", "--r-norm", "R.json"])
        assert run([command, "--matrix", "A.json", *norms, "--sigma", "3",
                    "--samples", samples, "--seed", "5", "--output", "report.json"]) == 0
        digest = hashlib.sha256(Path("report.json").read_bytes()).hexdigest()
        assert digest == self.DIGESTS[command, samples]
