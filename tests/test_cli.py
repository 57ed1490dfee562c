"""End-to-end CLI behavior: exit codes, reports, determinism, workers."""

import itertools
import json
import logging
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import ocrs
from ocrs import cli
from ocrs.applications import (ProphetInstance, prepare_prophet,
                               prophet_almighty_value, prophet_trial_states)
from ocrs.cli import main
from ocrs.core import SeedSpec, iter_bits
from ocrs.matroids import MatroidPolytope, UniformMatroid
from ocrs.optimize import DiscreteDistribution
from ocrs import schemes
from ocrs.schemes import MatroidChainFactory

K4 = {"matroid": {"type": "graphic", "vertices": 4,
                  "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}}
#: 66 edges: more elements than an int64 mask holds
_K12 = {"vertices": 12,
        "edges": [[u, v] for u in range(12) for v in range(u + 1, 12)]}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_selectability_pass(tmp_path):
    inst = _write(tmp_path, "k4.json", K4)
    out = tmp_path / "rep.json"
    csv_out = tmp_path / "rep.csv"
    code = main(["verify-selectability", "--scheme", "matroid", "--b", "0.5",
                 "--trials", "20000", "--seed", "7", inst,
                 "--out-json", str(out), "--out-csv", str(csv_out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] and payload["bound_expr"] == "1-b"
    assert len(payload["elements"]) == 6
    header = csv_out.read_text().splitlines()[0]
    assert header == "element,estimate,ci_halfwidth,bound,pass"


def test_verify_selectability_matching_and_knapsack(tmp_path):
    graph = _write(tmp_path, "tri.json",
                   {"graph": {"vertices": 3,
                              "edges": [[0, 1], [1, 2], [0, 2]]}})
    code = main(["verify-selectability", "--scheme", "matching", "--b", "0.5",
                 "--trials", "5000", "--seed", "1", graph,
                 "--out-json", str(tmp_path / "m.json")])
    assert code == 0
    knap = _write(tmp_path, "knap.json", {"sizes": [0.6, 0.3, 0.3]})
    code = main(["verify-selectability", "--scheme", "knapsack", "--b", "0.25",
                 "--trials", "5000", "--seed", "1", knap,
                 "--out-json", str(tmp_path / "k.json")])
    assert code == 0


def test_verify_selectability_intersect(tmp_path):
    inst = _write(tmp_path, "inter.json", {
        "parts": [
            {"scheme": "matroid",
             "matroid": {"type": "uniform", "n": 3, "k": 2}},
            {"scheme": "knapsack", "sizes": [0.6, 0.4, 0.3]},
        ],
        "x": [0.05, 0.05, 0.05],
    })
    code = main(["verify-selectability", "--scheme", "intersect", "--b",
                 "0.25", "--trials", "5000", "--seed", "1", inst,
                 "--out-json", str(tmp_path / "i.json")])
    assert code == 0
    payload = json.loads((tmp_path / "i.json").read_text())
    assert payload["bound_expr"] == "(1-b) * ((1-2b)/(2-2b))"


def test_byte_identical_reports(tmp_path):
    inst = _write(tmp_path, "k4.json", K4)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["verify-selectability", "--scheme", "matroid", "--b",
                     "0.5", "--trials", "10000", "--seed", "99", inst,
                     "--out-json", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_do_not_change_results(tmp_path):
    inst = _write(tmp_path, "k4.json", K4)
    a, b = tmp_path / "w1.json", tmp_path / "w2.json"
    assert main(["verify-selectability", "--scheme", "matroid", "--b", "0.5",
                 "--trials", "20000", "--seed", "5", inst,
                 "--out-json", str(a)]) == 0
    assert main(["verify-selectability", "--scheme", "matroid", "--b", "0.5",
                 "--trials", "20000", "--seed", "5", "--workers", "3", inst,
                 "--out-json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_malformed_input_exit_codes(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["verify-selectability", "--scheme", "matroid", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["probing", str(bad)]) == 2
    nofield = _write(tmp_path, "nofield.json", {"w": [1.0]})
    assert main(["probing", nofield]) == 2


def test_error_names_offending_field(tmp_path, capsys):
    nofield = _write(tmp_path, "nofield.json", {"p": [1.0]})
    assert main(["probing", nofield]) == 2
    assert _input_error_line(capsys) == "input error: missing field 'w'"


def test_non_finite_x_is_an_input_error(tmp_path, capsys):
    inst = _write(tmp_path, "nan.json",
                  {"graph": {"vertices": 3, "edges": [[0, 1], [1, 2]]},
                   "x": [float("nan"), 0.2]})
    out = tmp_path / "nan_out.json"
    assert main(["verify-selectability", "--scheme", "matching", inst,
                 "--trials", "100", "--out-json", str(out)]) == 2
    assert "'x'" in _input_error_line(capsys)
    assert not out.exists()


def test_workers_below_one_is_an_input_error(tmp_path):
    inst = _write(tmp_path, "k4.json", K4)
    assert main(["verify-selectability", "--scheme", "matroid", inst,
                 "--trials", "100", "--workers", "0"]) == 2


def test_ground_set_of_64_or_more_is_an_input_error(tmp_path, capsys):
    """K12 has 66 edges: refused where the graph is parsed, naming the
    field, before any point is fitted or any sampler bound."""
    inst = _write(tmp_path, "k12.json", {"graph": _K12})
    assert main(["verify-selectability", "--scheme", "matching", inst,
                 "--trials", "100"]) == 2
    assert _input_error_line(capsys) == (
        "input error: bad 'graph': bad 'edges': a ground set of 66 elements; "
        "int64 mask packing holds at most 63 elements")


def test_intersect_fits_its_point_on_a_17_element_uniform_matroid(tmp_path):
    """Above 16 elements a uniform matroid's load has a closed form, so an
    intersect instance with no 'x' fits its drawn point into b * P and
    runs."""
    sizes = [0.05 * (1 + e % 5) for e in range(17)]
    inst = _write(tmp_path, "u17.json", {"parts": [
        {"scheme": "matroid",
         "matroid": {"type": "uniform", "n": 17, "k": 3}},
        {"scheme": "knapsack", "sizes": sizes}]})
    out = tmp_path / "out.json"
    assert main(["verify-selectability", inst, "--scheme", "intersect",
                 "--trials", "2000", "--out-json", str(out)]) == 0
    x = json.loads(out.read_text())["x"]
    assert max(max(x), sum(x) / 3,
               sum(s * v for s, v in zip(sizes, x))) <= 0.5


def test_intersect_fits_its_point_on_a_17_element_laminar_matroid(tmp_path):
    """A laminar matroid's load has a closed form too, so the same run on
    a 17-element nested family exits 0 (it was refused)."""
    sizes = [0.05 * (1 + e % 5) for e in range(17)]
    sets = [list(range(10)), [0, 1, 2], list(range(10, 17)), [16]]
    inst = _write(tmp_path, "laminar17.json", {"parts": [
        {"scheme": "matroid",
         "matroid": {"type": "laminar", "n": 17, "sets": sets,
                     "capacities": [3, 1, 2, 1]}},
        {"scheme": "knapsack", "sizes": sizes}]})
    out = tmp_path / "out.json"
    assert main(["verify-selectability", inst, "--scheme", "intersect",
                 "--trials", "2000", "--out-json", str(out)]) == 0
    x = json.loads(out.read_text())["x"]
    assert max(max(x), sum(x[:10]) / 3, sum(x[:3]), sum(x[10:]) / 2,
               sum(s * v for s, v in zip(sizes, x))) <= 0.5


def test_intersect_default_point_is_zero_on_a_loop(tmp_path):
    """A capacity-0 set makes element 16 a loop; the drawn point is 0 on
    it before fitting, so the run exits 0 (it exited 2, the point being
    positive on the loop)."""
    sizes = [0.05 * (1 + e % 5) for e in range(17)]
    sets = [list(range(10)), [0, 1, 2], list(range(10, 17)), [16]]
    inst = _write(tmp_path, "loop17.json", {"parts": [
        {"scheme": "matroid",
         "matroid": {"type": "laminar", "n": 17, "sets": sets,
                     "capacities": [3, 1, 2, 0]}},
        {"scheme": "knapsack", "sizes": sizes}]})
    out = tmp_path / "out.json"
    assert main(["verify-selectability", inst, "--scheme", "intersect",
                 "--trials", "2000", "--out-json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["x"][16] == 0.0
    assert payload["all_pass"]


def test_impossibility_command(tmp_path, capsys):
    assert main(["impossibility", "--n", "3", "--b", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_selectability_float"] == 0.25
    assert payload["matches_closed_form"]
    assert main(["impossibility", "--n", "2", "--b", "1/4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_selectability"] == "3/4"


def test_prophet_command(tmp_path):
    inst = _write(tmp_path, "p.json", {
        "matroid": {"type": "uniform", "n": 2, "k": 1},
        "dists": [{"support": [1], "probs": [1.0]},
                  {"support": [0, 100], "probs": [0.99, 0.01]}],
    })
    out = tmp_path / "p_out.json"
    code = main(["prophet", inst, "--b", "0.5", "--trials", "20000", "--seed",
                 "3", "--out-json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] and payload["bound"] == 0.25
    assert payload["benchmark_expected_max"] == pytest.approx(1.99)


def test_prophet_csv_matches_report(tmp_path):
    # the CSV rows come from the pass that makes the report, in trial order
    inst = _write(tmp_path, "p3.json", {
        "matroid": {"type": "uniform", "n": 3, "k": 1},
        "dists": [{"support": [0.0, 1.5], "probs": [0.5, 0.5]},
                  {"support": [0.0, 4.0], "probs": [0.8, 0.2]},
                  {"support": [1.0, 2.0], "probs": [0.5, 0.5]}],
    })
    trials = 3000
    for order in ("worst", "identity"):
        out = tmp_path / f"p3_{order}.json"
        csv_out = tmp_path / f"p3_{order}.csv"
        assert main(["prophet", inst, "--order", order, "--trials",
                     str(trials), "--seed", "4", "--out-json", str(out),
                     "--out-csv", str(csv_out)]) == 0
        rows = csv_out.read_text().splitlines()
        assert rows[0] == "trial,value"
        assert len(rows) == trials + 1
        total = 0.0
        for i, row in enumerate(rows[1:]):
            index, value = row.split(",")
            assert int(index) == i
            total += float(value)
        assert total / trials == json.loads(out.read_text())["mean"]


def test_prophet_order_flag_overrides_instance_order(tmp_path):
    # the instance's order applies without the flag; a given --order wins
    inst = _write(tmp_path, "po.json", {
        "matroid": {"type": "partition", "blocks": [[0, 1], [2, 3]],
                    "capacities": [1, 1]},
        "dists": [{"support": [0.0, 1.0 + e], "probs": [0.5, 0.5]}
                  for e in range(4)],
        "order": [3, 1, 0, 2]})
    outputs = {}
    for name, extra in (("instance", []), ("identity", ["--order",
                                                        "identity"])):
        out = tmp_path / f"po_{name}.json"
        csv_out = tmp_path / f"po_{name}.csv"
        assert main(["prophet", inst, "--trials", "2000", "--seed", "1",
                     "--out-json", str(out), "--out-csv", str(csv_out),
                     *extra]) == 0
        outputs[name] = (json.loads(out.read_text()), csv_out.read_bytes())
    assert outputs["instance"][0]["order"] == [3, 1, 0, 2]
    assert outputs["identity"][0]["order"] == [0, 1, 2, 3]
    assert outputs["instance"][1] != outputs["identity"][1]


_U3 = {"type": "uniform", "n": 3, "k": 1}
_PROPHET = {"matroid": _U3,
            "dists": [{"support": [0.0, 1.0], "probs": [0.5, 0.5]}] * 3}


def test_prophet_worst_order_above_six_elements_is_almighty(tmp_path,
                                                            caplog):
    # exhaustive search stops at 6 elements; above that the command plays
    # the almighty adversary, whose value of a trial is the least over
    # every order of its active set
    obj = {"matroid": {"type": "uniform", "n": 7, "k": 2},
           "dists": [{"support": [0.0, 1.0 + 0.25 * e, 6.0 - 0.5 * e],
                      "probs": [0.6, 0.3, 0.1]} for e in range(7)]}
    inst = _write(tmp_path, "u72.json", obj)
    out, csv_out = tmp_path / "u72_out.json", tmp_path / "u72.csv"
    with caplog.at_level(logging.INFO, logger="ocrs"):
        assert main(["prophet", inst, "--b", "0.5", "--trials", "2000",
                     "--seed", "1", "--out-json", str(out),
                     "--out-csv", str(csv_out)]) == 0
    assert "almighty adversary over 7 elements" in caplog.text
    matroid = UniformMatroid(7, 2)
    instance = ProphetInstance(matroid, tuple(
        DiscreteDistribution(d["support"], d["probs"]) for d in obj["dists"]))
    pipeline = prepare_prophet(instance, MatroidChainFactory(matroid, 0.5),
                               SeedSpec(1))
    collect = []
    estimate = prophet_almighty_value(pipeline, 2000, SeedSpec(1), collect)
    payload = json.loads(out.read_text())
    assert payload["order"] == "almighty"
    assert payload["mean"] == estimate.mean
    rows = csv_out.read_text().splitlines()
    assert rows == ["trial,value"] + [f"{i},{v}"
                                      for i, v in enumerate(collect)]
    # by state object: trials with equal play keys share one, and the list
    # holds every object, so no id is reused
    minima = {}
    for state, value in zip(prophet_trial_states(pipeline, 2000, SeedSpec(1)),
                            collect):
        key = id(state)
        if key not in minima:
            minima[key] = min(pipeline.value(state, order) for order in
                              itertools.permutations(iter_bits(state[1])))
        assert math.isclose(value, minima[key], rel_tol=1e-12)
    # a 6-element run still reports the worst fixed order
    obj6 = dict(obj, matroid={"type": "uniform", "n": 6, "k": 2},
                dists=obj["dists"][:6])
    out6 = tmp_path / "u62_out.json"
    assert main(["prophet", _write(tmp_path, "u62.json", obj6), "--trials",
                 "500", "--out-json", str(out6)]) == 0
    assert sorted(json.loads(out6.read_text())["order"]) == list(range(6))


def test_default_log_level_keeps_stderr_quiet(tmp_path):
    inst = _write(tmp_path, "p.json", _PROPHET)
    argv = [sys.executable, "-m", "ocrs.cli", "prophet", inst, "--trials",
            "500", "--out-json", str(tmp_path / "out.json")]
    env = {k: v for k, v in os.environ.items() if k != "OCRS_LOG"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ocrs.__file__))
    quiet = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert quiet.returncode == 0 and quiet.stderr == ""
    loud = subprocess.run(argv, env=dict(env, OCRS_LOG="INFO"),
                          capture_output=True, text=True)
    assert loud.returncode == 0
    assert ("INFO ocrs.harness: worst-order search (exhaustive): 500 trials"
            in loud.stderr)


def _knapsack_outer_size0(size):
    """Submodular probing, inner U(3,2), a knapsack outer whose first size
    is ``size``: the direction LPs read the sizes before any scheme."""
    return {"f": {"universe_weights": [1.0, 1.0],
                  "covers": [[0], [1], [0, 1]]},
            "p": [0.5] * 3, "inner": {"type": "uniform", "n": 3, "k": 2},
            "outer": {"type": "knapsack", "sizes": [size, 0.3, 0.2]}}


@pytest.mark.parametrize("command, instance, extra, field", [
    ("probing", {"p": [0.5, 0.5], "w": [float("inf"), 1.0],
                 "inner": {"type": "uniform", "n": 2, "k": 1},
                 "outer": {"type": "uniform", "n": 2, "k": 1}}, [], "'w'"),
    ("probing", {"p": [0.5, 0.5], "w": [1.0, 1.0], "b": float("nan"),
                 "inner": {"type": "uniform", "n": 2, "k": 1},
                 "outer": {"type": "uniform", "n": 2, "k": 1}}, [], "'b'"),
    ("verify-selectability", {"sizes": [float("nan"), 0.3, 0.2]},
     ["--scheme", "knapsack", "--b", "0.25"], "'sizes'"),
    ("prophet", dict(_PROPHET, dists=[{"support": [0.0, 1.0],
                                       "probs": [float("nan"), 0.5]}] * 3),
     [], "'probs'"),
    ("prophet", dict(_PROPHET, dists=[{"support": [0.0, float("nan")],
                                       "probs": [0.5, 0.5]}] * 3),
     [], "'support'"),
    ("prophet", dict(_PROPHET, dists=[{"support": [0.0, float("inf")],
                                       "probs": [0.5, 0.5]}] * 3),
     [], "'support'"),
    ("submodular", {"f": {"universe_weights": [float("nan"), 1.0],
                          "covers": [[0], [1], [0, 1]]},
                    "matroid": _U3}, [], "'universe_weights'"),
    ("submodular", {"f": {"arcs": [[0, 1, float("nan")], [1, 2, 1.0]]},
                    "matroid": _U3}, [], "'arcs'"),
    ("submodular", {"f": {"universe_weights": [1.0, 1.0],
                          "covers": [[0], [1], [0, 1]]},
                    "p": [0.5, 0.5, 0.5], "inner": _U3, "outer": _U3,
                    "b": float("nan")}, [], "'b'"),
    ("verify-selectability", {"matroid": _U3},
     ["--scheme", "matroid", "--b", "nan"], "--b"),
    ("prophet", _PROPHET, ["--b", "inf"], "--b"),
    ("submodular", _knapsack_outer_size0(float("nan")), [], "'sizes'"),
    # JSON reads the number 1e400 as inf
    ("submodular", _knapsack_outer_size0(float("1e400")), [], "'sizes'"),
], ids=["probing-w-inf", "probing-b-nan", "knapsack-sizes-nan",
        "prophet-probs-nan", "prophet-support-nan", "prophet-support-inf",
        "coverage-weights-nan", "cut-arc-weight-nan",
        "submodular-probing-b-nan", "matroid-flag-b-nan",
        "prophet-flag-b-inf", "submodular-probing-knapsack-size-nan",
        "submodular-probing-knapsack-size-1e400"])
def test_non_finite_numbers_exit_2_naming_the_field(tmp_path, capsys, command,
                                                    instance, extra, field):
    _assert_input_error_names(tmp_path, capsys, command, instance, extra,
                              field)


def _input_error_line(capsys) -> str:
    """The one stderr line of an input error."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: "), lines
    return lines[0]


def _assert_input_error_names(tmp_path, capsys, command, instance, extra,
                              field):
    path = _write(tmp_path, "inst.json", instance)
    out = tmp_path / "out.json"
    try:
        code = main([command, path, *extra, "--trials", "100",
                     "--out-json", str(out)])
    except SystemExit as exc:  # argparse rejects a bad flag value
        assert exc.code == 2
        # its usage lines, then one error line
        assert field in capsys.readouterr().err.splitlines()[-1]
    else:
        assert code == 2
        assert field in _input_error_line(capsys)
    assert not out.exists()


_U2 = {"type": "uniform", "n": 2, "k": 1}
_PROPHET2 = {"matroid": _U2,
             "dists": [{"support": [0.0, 1.0], "probs": [0.5, 0.5]}] * 2}
_PROBING3 = {"p": [0.5] * 3, "w": [1.0, 2.0, 3.0], "inner": _U3,
             "outer": _U3}
_COVER3 = {"universe_weights": [1.0, 1.0], "covers": [[0], [1], [0, 1]]}
_MATROID = ["--scheme", "matroid"]
_KNAPSACK = ["--scheme", "knapsack", "--b", "0.25"]
_U22 = {"type": "uniform", "n": 2, "k": 2}
_HUGE2 = {"p": [1, 1], "w": [1.7e308, 1.7e308], "inner": _U22,
          "outer": _U22}
_SUBMODULAR6 = {"f": {"universe_weights": [1.0, 2.0, 1.5, 0.5, 1.0, 0.75,
                                           2.0],
                      "covers": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5],
                                 [5, 6]]},
                "p": [0.8, 0.6, 0.9, 0.7, 0.5, 0.6],
                "inner": {"type": "uniform", "n": 6, "k": 2},
                "outer": {"type": "uniform", "n": 6, "k": 3}, "b": 0.5}


#: every command that takes --seed, on a valid instance
_SEEDED = [("verify-selectability", {"matroid": _U3}, _MATROID),
           ("prophet", _PROPHET2, []),
           ("probing", _PROBING3, []),
           ("submodular", {"f": _COVER3, "matroid": _U3}, [])]


def _submodular6_p0(value):
    return dict(_SUBMODULAR6, p=[value] + _SUBMODULAR6["p"][1:])


@pytest.mark.parametrize("command, instance, extra, field", [
    ("verify-selectability",
     {"matroid": {"type": "uniform", "n": None, "k": 1}}, _MATROID, "'n'"),
    ("verify-selectability",
     {"graph": {"vertices": None, "edges": [[0, 1]]}},
     ["--scheme", "matching"], "'vertices'"),
    ("verify-selectability", {"sizes": None},
     ["--scheme", "knapsack", "--b", "0.25"], "'sizes'"),
    ("probing", dict(_PROBING3, inner={"type": "knapsack", "sizes": None}),
     [], "'sizes'"),
    ("probing", dict(_PROBING3, p=5), [], "'p'"),
    ("prophet", dict(_PROPHET2, dists=None), [], "'dists'"),
    ("verify-selectability",
     {"matroid": {"type": "laminar", "n": 2, "sets": [["a"]],
                  "capacities": [1]}}, _MATROID, "'sets'"),
    ("verify-selectability",
     {"matroid": {"type": "explicit", "n": 2, "bases": None}}, _MATROID,
     "'bases'"),
    ("prophet", dict(_PROPHET2, order=[0.5, 1.5]), [], "'order'"),
    ("prophet", dict(_PROPHET2, order=[True, False]), [], "'order'"),
    ("prophet", dict(_PROPHET2, order=5), [], "'order'"),
    ("prophet", dict(_PROPHET2, order=None), [], "'order'"),
    ("prophet", dict(_PROPHET2, dists=_PROPHET2["dists"][:1]), [],
     "'dists'"),
    ("probing", dict(_PROBING3, p=[0.5, 0.5], w=[1.0, 2.0]), [], "'p'"),
    ("submodular", {"f": _COVER3, "matroid": _U2}, [], "'f'"),
    ("submodular", {"f": _COVER3, "p": [0.5] * 3, "inner": _U2,
                    "outer": _U3}, [], "'f'"),
    ("submodular", {"f": _COVER3, "p": [0.5] * 2, "inner": _U3,
                    "outer": _U3}, [], "'p'"),
    ("submodular", {"f": dict(_COVER3, covers=None), "matroid": _U3}, [],
     "'covers'"),
    ("submodular", {"f": {"arcs": None}, "matroid": _U3}, [], "'arcs'"),
    ("submodular", {"f": _COVER3, "matroid": _U3, "b": None}, [], "'b'"),
    ("verify-selectability",
     {"graph": {"vertices": 2, "edges": [[0, 1]]}, "deterministic": "false"},
     ["--scheme", "matching"], "'deterministic'"),
    ("verify-selectability",
     {"matroid": {"type": "uniform", "n": 2.5, "k": 1}}, _MATROID, "'n'"),
    ("verify-selectability",
     {"matroid": {"type": "uniform", "n": 2, "k": True}}, _MATROID, "'k'"),
    ("verify-selectability",
     {"matroid": {"type": "uniform", "n": "2", "k": 1}}, _MATROID, "'n'"),
    ("verify-selectability",
     {"matroid": {"type": "partition", "blocks": [[0, 1.0]],
                  "capacities": [1]}}, _MATROID, "'blocks'"),
    ("verify-selectability",
     {"graph": {"vertices": 3, "edges": [[0, True], [1, 2]]}},
     ["--scheme", "matching"], "'edges'"),
    ("probing", dict(_PROBING3, deadlines=[1, "2", 3]), [], "'deadlines'"),
    ("submodular", {"f": dict(_COVER3, covers=[[0], [1.0], [0, 1]]),
                    "matroid": _U3}, [], "'covers'"),
    ("submodular", {"f": {"arcs": [[0, True, 1.0]]}, "matroid": _U2}, [],
     "'arcs'"),
    ("prophet", dict(_PROPHET2, order=["0", "1"]), [], "'order'"),
    ("probing", dict(_PROBING3, w=[1e200, 1e200, 1.0]), [], "'w'"),
    ("prophet", dict(_PROPHET2, dists=[{"support": [0.0, 1e200],
                                        "probs": [0.5, 0.5]}] * 2), [],
     "'dists'"),
    ("submodular", {"f": dict(_COVER3, universe_weights=[1e200, 1e200]),
                    "matroid": _U3}, [], "'f'"),
    ("submodular", {"f": {"arcs": [[0, 1, 1e200], [1, 2, 1e200]]},
                    "matroid": _U3}, [], "'f'"),
    ("submodular", {"f": dict(_COVER3, universe_weights=[1e200, 1e200]),
                    "p": [0.5] * 3, "inner": _U3, "outer": _U3}, [], "'f'"),
    ("probing", _HUGE2, [], "'w'"),
    ("probing", dict(_HUGE2, deadlines=[2, 2]), [], "'w'"),
    ("probing", dict(_PROBING3, deadlines=[]), [], "'deadlines'"),
    ("submodular", _submodular6_p0(-0.5), [], "'p'"),
    ("submodular", _submodular6_p0(1.5), [], "'p'"),
    ("submodular", _submodular6_p0(float("nan")), [], "'p'"),
    ("submodular", dict(_SUBMODULAR6, f=dict(_SUBMODULAR6["f"],
                                             universe_weights=[1e308] * 7)),
     [], "'universe_weights'"),
    ("submodular", dict(_SUBMODULAR6, f={"universe_weights": [1e307] * 8,
                                         "covers": [list(range(8))] * 6},
                        inner=dict(_SUBMODULAR6["inner"], k=3),
                        outer=dict(_SUBMODULAR6["outer"], k=6)),
     [], "'f'"),
    ("submodular", {"f": {"universe_weights": [1.2e308, 0.0],
                          "covers": [[0], [0], [1]]},
                    "matroid": {"type": "uniform", "n": 3, "k": 2}}, [],
     "'f'"),
    ("verify-selectability",
     {"matroid": {"type": "partition", "blocks": [[0, 1], [2, 3]],
                  "capacities": [1, -1]}}, _MATROID, "'capacities'"),
    ("verify-selectability",
     {"matroid": {"type": "laminar", "n": 4, "sets": [[0, 1], [2, 3]],
                  "capacities": [1, -1]}}, _MATROID, "'capacities'"),
    ("verify-selectability",
     {"matroid": {"type": "uniform", "n": -1, "k": 1}}, _MATROID, "'n'"),
    ("verify-selectability",
     {"matroid": {"type": "laminar", "n": -2, "sets": [], "capacities": []}},
     _MATROID, "'n'"),
    ("verify-selectability",
     {"matroid": {"type": "explicit", "n": -1, "bases": [[]]}}, _MATROID,
     "'n'"),
    ("verify-selectability",
     {"matroid": {"type": "explicit", "n": 13, "bases": [[0, 1], [2, 3]]},
      "x": [0.1] * 4 + [0.0] * 9}, _MATROID, "'bases'"),
    ("verify-selectability",
     {"matroid": {"type": "explicit", "n": 25, "bases": [[0, 1]]}},
     _MATROID, "'n'"),
    ("verify-selectability",
     {"matroid": {"type": "explicit", "n": 2, "bases": [[0, 5]]}},
     _MATROID, "'bases'"),
    ("verify-selectability",
     {"matroid": {"type": "laminar", "n": 2, "sets": [[0, 5]],
                  "capacities": [1]}}, _MATROID, "'sets'"),
    ("verify-selectability",
     {"matroid": {"type": "graphic", "vertices": 3, "edges": [[0, 5]]}},
     _MATROID, "'edges'"),
    ("verify-selectability", {"graph": {"vertices": 3, "edges": [[0, 5]]}},
     ["--scheme", "matching"], "'edges'"),
    ("verify-selectability", {"sizes": [0.3, True]}, _KNAPSACK, "'sizes'"),
    ("verify-selectability", {"sizes": [0.1, 0.1], "x": [True, "0.1"]},
     _KNAPSACK, "'x'"),
    ("prophet", dict(_PROPHET2, dists=[{"support": [0, "1"],
                                        "probs": [0.5, 0.5]}] * 2), [],
     "'support'"),
    ("prophet", dict(_PROPHET2, dists=[{"support": [0.0, 1.0],
                                        "probs": ["0.5", 0.5]}] * 2), [],
     "'probs'"),
    ("probing", dict(_PROBING3, p=[0.5, True, 0.5]), [], "'p'"),
    ("probing", dict(_PROBING3, w=["3", 1.0, 2.0]), [], "'w'"),
    ("probing", dict(_PROBING3, b="0.5"), [], "'b'"),
    ("submodular", {"f": _COVER3, "matroid": _U3, "b": "0.5"}, [], "'b'"),
    ("submodular", {"f": dict(_COVER3, universe_weights=[True, 1.0]),
                    "matroid": _U3}, [], "'universe_weights'"),
    ("submodular", {"f": {"arcs": [[0, 1, "1.0"]]}, "matroid": _U2}, [],
     "'arcs'"),
    ("verify-selectability", {"sizes": []}, _KNAPSACK, "'sizes'"),
    ("verify-selectability", {"graph": {"vertices": 2, "edges": []}},
     ["--scheme", "matching"], "'edges'"),
    ("verify-selectability",
     {"matroid": {"type": "uniform", "n": 0, "k": 0}}, _MATROID,
     "'matroid'"),
    ("verify-selectability",
     {"matroid": {"type": "graphic", "vertices": 2, "edges": []}}, _MATROID,
     "'matroid'"),
    ("prophet", {"matroid": {"type": "uniform", "n": 0, "k": 0},
                 "dists": []}, [], "'matroid'"),
    ("submodular", {"f": {"universe_weights": [1.0], "covers": []},
                    "matroid": {"type": "uniform", "n": 0, "k": 0}}, [],
     "'matroid'"),
    ("probing", dict(_PROBING3, p=[], w=[],
                     inner={"type": "uniform", "n": 0, "k": 0},
                     outer={"type": "uniform", "n": 0, "k": 0}), [], "'p'"),
    ("submodular", {"f": {"universe_weights": [1.0], "covers": []},
                    "p": [], "inner": {"type": "uniform", "n": 0, "k": 0},
                    "outer": {"type": "uniform", "n": 0, "k": 0}}, [],
     "'p'"),
    ("submodular", {"f": {"universe_weights": [1.0] * 15,
                          "covers": [[e] for e in range(15)]},
                    "matroid": {"type": "uniform", "n": 15, "k": 3}}, [],
     "'f'"),
    ("submodular", dict(_PROBING3, f={"arcs": [[0, 1, 1.0], [1, 2, 1.0]]}),
     [], "'f'"),
    ("verify-selectability", {"graph": _K12}, ["--scheme", "matching"],
     "'edges'"),
    ("verify-selectability", {"matroid": {"type": "uniform", "n": 70,
                                          "k": 3}}, _MATROID, "'matroid'"),
    ("verify-selectability", {"matroid": dict(_K12, type="graphic")},
     _MATROID, "'matroid'"),
    ("verify-selectability", {"sizes": [0.01] * 64}, _KNAPSACK, "'sizes'"),
    ("probing", dict(_PROBING3, p=[0.5] * 64), [], "'p'"),
    *[(command, instance, [*extra, "--seed", seed], "--seed")
      for command, instance, extra in _SEEDED
      for seed in ("-1", str(1 << 64))],
], ids=["uniform-n-null", "graph-vertices-null", "knapsack-sizes-null",
        "probing-inner-sizes-null", "probing-p-number", "prophet-dists-null",
        "laminar-sets-string", "explicit-bases-null", "prophet-order-floats",
        "prophet-order-booleans", "prophet-order-number", "prophet-order-null",
        "prophet-dists-short", "probing-p-short", "submodular-f-vs-matroid",
        "submodular-f-vs-inner", "submodular-p-short", "coverage-covers-null",
        "cut-arcs-null", "submodular-b-null", "matching-deterministic-string",
        "uniform-n-float", "uniform-k-boolean", "uniform-n-string",
        "partition-blocks-float", "graph-edges-boolean",
        "deadlines-string", "coverage-covers-float", "cut-arcs-boolean",
        "prophet-order-strings", "probing-w-overflows",
        "prophet-support-overflows", "coverage-weights-overflow",
        "cut-arc-weights-overflow", "submodular-probing-weights-overflow",
        "probing-lp-optimum-overflows", "deadlines-lp-optimum-overflows",
        "deadlines-empty", "submodular-p-negative", "submodular-p-above-one",
        "submodular-p-nan", "submodular-probing-weight-total-overflows",
        "submodular-direction-lp-optimum-overflows",
        "submodular-audit-sum-overflows", "partition-capacity-negative",
        "laminar-capacity-negative", "uniform-n-negative",
        "laminar-n-negative", "explicit-n-negative",
        "explicit-13-not-a-matroid", "explicit-n-above-table",
        "explicit-bases-element-out-of-range",
        "laminar-sets-element-out-of-range", "graphic-edge-out-of-range",
        "graph-edge-out-of-range", "knapsack-sizes-boolean",
        "x-boolean-and-string", "prophet-support-string",
        "prophet-probs-string", "probing-p-boolean", "probing-w-string",
        "probing-b-string", "submodular-b-string",
        "coverage-weights-boolean", "cut-arc-weight-string",
        "knapsack-sizes-empty", "graph-edges-empty",
        "uniform-matroid-empty", "graphic-matroid-empty",
        "prophet-matroid-empty", "submodular-matroid-empty",
        "probing-p-empty", "submodular-probing-p-empty",
        "coverage-above-exact-limit", "submodular-probing-cut",
        "graph-edges-66", "uniform-matroid-70", "graphic-matroid-66",
        "knapsack-sizes-64", "probing-p-64",
        *[f"{command}-seed-{where}" for command, _i, _e in _SEEDED
          for where in ("negative", "2-to-64")]])
def test_wrong_type_or_value_fields_exit_2_naming_the_field(
        tmp_path, capsys, command, instance, extra, field):
    _assert_input_error_names(tmp_path, capsys, command, instance, extra,
                              field)


@pytest.mark.parametrize("command, instance, extra, message", [
    ("probing", dict(_PROBING3, inner={"type": "uniform", "k": 1}), [],
     "bad 'inner': missing field 'n'"),
    ("probing", dict(_PROBING3, outer={"type": "uniform", "n": -3, "k": 1}),
     [], "bad 'outer': bad 'n': must be nonnegative"),
    ("verify-selectability", {"matroid": {"type": "uniform", "k": 1}},
     _MATROID, "bad 'matroid': missing field 'n'"),
    ("prophet", dict(_PROPHET2, matroid={"type": "uniform", "n": -1, "k": 1}),
     [], "bad 'matroid': bad 'n': must be nonnegative"),
    ("prophet", dict(_PROPHET2, dists=[{"support": [0.0, 1.0]}] * 2), [],
     "bad 'dists': missing field 'probs'"),
    ("verify-selectability", {"graph": {"edges": [[0, 1]]}},
     ["--scheme", "matching"], "bad 'graph': missing field 'vertices'"),
    ("verify-selectability",
     {"parts": [{"scheme": "knapsack", "sizes": [0.5, "0.5"]}]},
     ["--scheme", "intersect", "--b", "0.25"],
     "bad 'parts': bad 'sizes': expected a JSON number, got '0.5'"),
], ids=["probing-inner-n-missing", "probing-outer-n-negative",
        "matroid-n-missing", "prophet-matroid-n-negative",
        "prophet-probs-missing", "graph-vertices-missing",
        "intersect-part-sizes-string"])
def test_nested_fields_name_every_level(tmp_path, capsys, command, instance,
                                        extra, message):
    """Every command reads a field the same way, whatever its depth: one
    line, with each enclosing field named from the top down."""
    path = _write(tmp_path, "inst.json", instance)
    assert main([command, path, *extra, "--trials", "100"]) == 2
    assert _input_error_line(capsys) == f"input error: {message}"


def test_impossibility_b_with_zero_denominator_is_an_input_error(capsys):
    assert main(["impossibility", "--n", "2", "--b", "1/0"]) == 2
    assert _input_error_line(capsys) == (
        "input error: bad '--b': zero denominator in '1/0'")


@pytest.mark.parametrize("n, b, message", [
    ("0", "0.5", "bad '--n': must lie in 1..4"),
    ("-1", "0.5", "bad '--n': must lie in 1..4"),
    ("5", "0.5", "bad '--n': must lie in 1..4"),
    ("2", "2", "bad '--b': must lie in [0, 1]"),
    ("2", "3/2", "bad '--b': must lie in [0, 1]"),
], ids=["n-zero", "n-negative", "n-five", "b-two", "b-three-halves"])
def test_impossibility_out_of_range_flags_name_the_flag(capsys, n, b,
                                                        message):
    assert main(["impossibility", "--n", n, "--b", b]) == 2
    assert _input_error_line(capsys) == f"input error: {message}"


def test_submodular_audit_allows_rounding_at_large_scale(tmp_path):
    """Coverage values are float sums.  Here f(A) + f(B) = 39603311.3 and
    f(A | B) + f(A & B) = 39603311.300000004, one ulp apart; the audit's
    tolerance grows with max |f|, so the coverage is accepted."""
    path = _write(tmp_path, "inst.json", {
        "f": {"universe_weights": [9343379.3, 1470903.3, 4379168.9,
                                   7380092.3, 4778122.6],
              "covers": [[1, 4], [2, 4], [0, 2], [0, 2], [0, 3]]},
        "matroid": {"type": "uniform", "n": 5, "k": 2}})
    assert main(["submodular", path, "--trials", "100", "--out-json",
                 str(tmp_path / "out.json")]) == 0


def test_submodular_values_above_half_the_float_maximum_exit_2(tmp_path,
                                                                capsys):
    """A 10-element objective is audited when it is built, so values too
    large to add exit 2 there, before any trial runs."""
    path = _write(tmp_path, "inst.json", {
        "f": {"universe_weights": [8e307, 8e307], "covers": [[0], [1]] * 5},
        "matroid": {"type": "uniform", "n": 10, "k": 2}})
    assert main(["submodular", path, "--trials", "100"]) == 2
    assert _input_error_line(capsys) == (
        "input error: bad 'f': 'f' takes values above half the float "
        "maximum, too large to audit for submodularity")


def test_input_error_prints_one_stderr_line(tmp_path):
    """At the default log level an input error prints one line on stderr
    and nothing else; a subprocess sees what pytest's log capture would
    hide in-process."""
    inst = _write(tmp_path, "p.json", {"dists": _PROPHET["dists"]})
    env = {k: v for k, v in os.environ.items() if k != "OCRS_LOG"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ocrs.__file__))
    run = subprocess.run([sys.executable, "-m", "ocrs.cli", "prophet", inst,
                          "--trials", "100"], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 2
    assert run.stderr == "input error: missing field 'matroid'\n"


def test_probing_commands(tmp_path):
    inst = _write(tmp_path, "pr.json", {
        "p": [1.0, 1.0], "w": [3.0, 2.0],
        "inner": {"type": "uniform", "n": 2, "k": 1},
        "outer": {"type": "uniform", "n": 2, "k": 2}, "b": 0.5,
    })
    out = tmp_path / "pr_out.json"
    csv_out = tmp_path / "pr_vals.csv"
    code = main(["probing", inst, "--trials", "20000", "--seed", "3",
                 "--out-json", str(out), "--out-csv", str(csv_out),
                 "--dump-lp", str(tmp_path / "lp.txt")])
    assert code == 0
    assert json.loads(out.read_text())["pass"]
    assert csv_out.read_text().splitlines()[0] == "trial,value"
    assert "max" in (tmp_path / "lp.txt").read_text()
    # the generated rows, then the certificate: one line per matroid
    dump = (tmp_path / "lp.txt").read_text().splitlines()
    assert dump[-2:] == ["certificate inner: max over S of y(S) - r(S) = 0",
                         "certificate outer: max over S of y(S) - r(S) = 0"]

    dl = _write(tmp_path, "dl.json", {
        "p": [1.0, 0.7], "w": [3.0, 2.0],
        "inner": {"type": "uniform", "n": 2, "k": 1},
        "outer": {"type": "uniform", "n": 2, "k": 2}, "b": 0.5,
        "deadlines": [1, 2],
    })
    # the same command reads the deadlines when the instance has them
    dl_out = tmp_path / "dl_out.json"
    code = main(["probing", dl, "--trials", "10000", "--seed", "3",
                 "--out-json", str(dl_out)])
    assert code == 0
    assert json.loads(dl_out.read_text())["bound_expr"].startswith(
        "b * (1-b) * ")


def test_submodular_commands(tmp_path):
    ocrs_inst = _write(tmp_path, "cov.json", {
        "f": {"universe_weights": [1.0, 2.0, 1.5, 0.5, 1.0],
              "covers": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        "matroid": {"type": "uniform", "n": 4, "k": 2},
        "x": [0.25, 0.25, 0.25, 0.25], "b": 0.5,
    })
    out = tmp_path / "cov_out.json"
    assert main(["submodular", ocrs_inst, "--trials", "20000", "--seed", "3",
                 "--out-json", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == "monotone"

    cut_inst = _write(tmp_path, "cut.json", {
        "f": {"arcs": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [3, 0, 0.5]]},
        "matroid": {"type": "uniform", "n": 4, "k": 2},
        "x": [0.25, 0.25, 0.25, 0.25], "b": 0.5,
    })
    out2 = tmp_path / "cut_out.json"
    assert main(["submodular", cut_inst, "--trials", "20000", "--seed", "3",
                 "--out-json", str(out2)]) == 0
    assert json.loads(out2.read_text())["mode"] == "half-subsample"

    probe_inst = _write(tmp_path, "sp.json", {
        "f": {"universe_weights": [1.0, 1.0, 2.0],
              "covers": [[0], [1], [2, 0]]},
        "p": [0.8, 0.6, 0.9],
        "inner": {"type": "uniform", "n": 3, "k": 2},
        "outer": {"type": "uniform", "n": 3, "k": 1}, "b": 0.5,
    })
    out3 = tmp_path / "sp_out.json"
    assert main(["submodular", probe_inst, "--trials", "20000", "--seed", "3",
                 "--out-json", str(out3)]) == 0
    assert json.loads(out3.read_text())["mode"] == "probing"


def test_validate_matroid_command(tmp_path):
    inst = _write(tmp_path, "k4.json", K4)
    out = tmp_path / "val.json"
    assert main(["validate-matroid", inst, "--out-json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] and payload["checks"]["axioms"]


@pytest.mark.parametrize("matroid", [
    {"type": "graphic", "vertices": 7,
     "edges": [[u, v] for u in range(7) for v in range(u + 1, 7)]},
    {"type": "explicit", "n": 20,
     "bases": [list(c) for c in itertools.combinations(range(20), 3)]},
], ids=["graphic-k7", "explicit-u20-3"])
def test_validate_matroid_audits_beyond_twelve_elements(tmp_path, matroid):
    """Every check runs on the one rank table, at any size it allows."""
    inst = _write(tmp_path, "m.json", {"matroid": matroid})
    out = tmp_path / "val.json"
    assert main(["validate-matroid", inst, "--out-json", str(out)]) == 0
    assert json.loads(out.read_text())["checks"] == {
        "axioms": True, "rank_submodular_monotone": True,
        "span_idempotent": True}


class _EmptyRankOne(UniformMatroid):
    """U(3, 1) with every rank raised by one: submodular with unit
    increases, but the empty set has rank 1."""

    def _fill_ranks(self):
        return super()._fill_ranks() + 1


def test_validate_matroid_reports_which_axiom_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "matroid_from_json",
                        lambda obj: _EmptyRankOne(3, 1))
    inst = _write(tmp_path, "u3.json", {"matroid": _U3})
    out = tmp_path / "val.json"
    assert main(["validate-matroid", inst, "--out-json", str(out)]) == 1
    assert json.loads(out.read_text())["checks"] == {
        "axioms": False, "failure": "the empty set has rank 1",
        "rank_submodular_monotone": True, "span_idempotent": True}


def test_experiment_config_api(tmp_path, capsys):
    inst = _write(tmp_path, "k4.json", K4)
    out = tmp_path / "cfg.json"
    assert main(["verify-selectability", inst, "--scheme", "matroid",
                 "--b", "0.5", "--trials", "5000", "--seed", "7",
                 "--out-json", str(out)]) == 0
    assert json.loads(out.read_text())["all_pass"]
    capsys.readouterr()
    assert main(["verify-selectability", inst, "--scheme", "matroid",
                 "--trials", "0"]) == 2
    assert "trials must be at least 1" in _input_error_line(capsys)
    assert main(["probing", str(tmp_path / "absent.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["mystery", inst])
    assert exc.value.code == 2
    assert main(["impossibility", "--n", "2", "--b", "0.5"]) == 0


@pytest.mark.parametrize("command,instance,flag", [
    ("submodular", {"f": {"universe_weights": [1.0, 1.0],
                          "covers": [[0], [1], [0, 1]]},
                    "matroid": _U3}, "--out-csv"),
    ("probing", {"p": [0.5] * 3, "w": [1.0, 2.0, 3.0], "inner": _U3,
                 "outer": _U3}, "--eps"),
    ("probing", {"p": [0.5] * 3, "w": [1.0, 2.0, 3.0], "inner": _U3,
                 "outer": _U3, "deadlines": [1, 2, 3]}, "--eps"),
    ("prophet", _PROPHET, "--eps"),
    ("submodular", {"f": _COVER3, "matroid": _U3}, "--eps"),
], ids=["submodular-out-csv", "probing-eps", "probing-deadlines-eps",
        "prophet-eps", "submodular-eps"])
def test_flags_a_command_never_reads_exit_2(tmp_path, capsys, command,
                                            instance, flag):
    path = _write(tmp_path, "inst.json", instance)
    out_json = tmp_path / "out.json"
    flag_file = tmp_path / "flag.out"
    value = str(flag_file) if flag == "--out-csv" else "0.1"
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--trials", "100", "--out-json", str(out_json),
              flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out_json.exists() and not flag_file.exists()


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


_GOLDEN_SELECTABILITY = [("knapsack", "knapsack", "0.25"),
                         ("intersect3", "intersect", "0.25"),
                         ("matching-det", "matching", "0.4"),
                         ("theta7", "matroid", "0.75")]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name,scheme,b", _GOLDEN_SELECTABILITY)
def test_golden_selectability_reports(tmp_path, name, scheme, b, workers):
    """Reports on fixed knapsack, three-part intersect, deterministic
    matching and three-level matroid chain (theta graph with seven paths)
    instances stay byte for byte what they were when recorded."""
    out = tmp_path / "report.json"
    assert main(["verify-selectability", os.path.join(GOLDEN, f"{name}.json"),
                 "--scheme", scheme, "--b", b, "--trials", "30000",
                 "--seed", "3", "--workers", str(workers),
                 "--out-json", str(out)]) == 0
    with open(os.path.join(GOLDEN, f"{name}.report.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def _selectability_stderr(workers: str, *args: str,
                          log_level: str = "WARNING") -> tuple[int, str]:
    """Exit code and stderr of a `verify-selectability` subprocess."""
    env = dict(os.environ, OCRS_LOG=log_level)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ocrs.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "ocrs.cli", "verify-selectability", *args,
         "--trials", "30000", "--seed", "3", "--workers", workers],
        env=env, capture_output=True, text=True)
    return run.returncode, run.stderr


def test_info_log_does_not_depend_on_workers():
    """The command binds the chain once, before any worker starts, and
    sends the bound sampler to the workers, so the INFO log holds one
    chain line and reads the same at any --workers."""
    args = (os.path.join(GOLDEN, "theta7.json"), "--scheme", "matroid",
            "--b", "0.75")
    code, err = _selectability_stderr("1", *args, log_level="INFO")
    assert code == 0
    assert err.count("INFO ocrs.schemes: chain:") == 1
    assert _selectability_stderr("2", *args, log_level="INFO") == (code, err)


def test_worker_error_reads_as_the_serial_one():
    """theta7's default point is outside 0.5 * P: the one bind, before any
    worker starts, raises a ValueError that exits 2 once, with the stderr
    of a serial run and no serial retry."""
    args = (os.path.join(GOLDEN, "theta7.json"), "--scheme", "matroid",
            "--b", "0.5")
    serial = _selectability_stderr("1", *args)
    assert serial[0] == 2 and serial[1].startswith("input error: ")
    assert _selectability_stderr("2", *args) == serial


def _golden_selectability_at_two_workers(tmp_path, name, scheme, b):
    out = tmp_path / "report.json"
    code = main(["verify-selectability", os.path.join(GOLDEN, f"{name}.json"),
                 "--scheme", scheme, "--b", b, "--trials", "30000",
                 "--seed", "3", "--workers", "2", "--out-json", str(out)])
    with open(os.path.join(GOLDEN, f"{name}.report.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
    return code


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise OSError("cannot start worker processes")


def test_pool_that_cannot_start_falls_back_to_serial(tmp_path, monkeypatch,
                                                     caplog):
    monkeypatch.setattr(cli, "_process_pool", _NoPool)
    with caplog.at_level(logging.WARNING, logger="ocrs"):
        assert _golden_selectability_at_two_workers(
            tmp_path, *_GOLDEN_SELECTABILITY[0]) == 0
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert [r.getMessage() for r in warnings] == [
        "parallel run failed (cannot start worker processes); falling back "
        "to serial"]


@pytest.mark.parametrize("name,scheme,b", _GOLDEN_SELECTABILITY)
def test_spawned_workers_get_the_built_factory(tmp_path, monkeypatch, capfd,
                                               caplog, name, scheme, b):
    """Workers started by spawn inherit no state from the parent: the
    bound sampler and the point reach them by pickle, and the reports stay
    the golden ones with nothing logged at the default level."""
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(cli, "_process_pool", lambda workers: (
        ProcessPoolExecutor(max_workers=workers, mp_context=spawn)))
    assert _golden_selectability_at_two_workers(tmp_path, name, scheme,
                                                b) == 0
    assert capfd.readouterr().err == ""
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_importing_the_cli_loads_no_process_pool():
    """The pool modules are imported by `cli._process_pool` only, so a
    serial command does not pay for multiprocessing, socket and
    subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ocrs.__file__))
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, ocrs.cli; print(sorted({'concurrent.futures', "
         "'multiprocessing'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("command,name", [
    ("probing", "probing6"),
    ("probing", "deadlines4"),
])
def test_golden_probing_reports(tmp_path, capsys, command, name):
    """Reports and per-trial CSVs of a 6-element probing instance (graphic
    inner with parallel edges, partition outer) and a 4-element deadline
    instance, both with fractional LP optima, stay byte for byte what they
    were when recorded; stderr stays empty at the default log level."""
    out, csv_out = tmp_path / "report.json", tmp_path / "values.csv"
    assert main([command, os.path.join(GOLDEN, f"{name}.json"),
                 "--trials", "2000", "--seed", "3", "--out-json", str(out),
                 "--out-csv", str(csv_out)]) == 0
    assert capsys.readouterr().err == ""
    for produced, suffix in [(out, "report.json"), (csv_out, "csv")]:
        with open(os.path.join(GOLDEN, f"{name}.{suffix}"), "rb") as fh:
            assert produced.read_bytes() == fh.read()


@pytest.mark.parametrize("name,summary", [
    ("probing6", "3 rounds; 9 of 132 rows; 25 pivots; max excess 0"),
    ("deadlines4", "2 rounds; 7 of 49 rows; 8 pivots; max excess 0"),
], ids=["probing6", "deadlines4"])
def test_golden_probing_lp_work(tmp_path, caplog, name, summary):
    """The exact LP work of the golden probing instances: cutting-plane
    rounds, generated rows and Bland's-rule pivots.  A change to the
    simplex's pivot path or to the separation shows here even when the
    optimum does not move."""
    with caplog.at_level(logging.INFO, logger="ocrs.optimize"):
        assert main(["probing", os.path.join(GOLDEN, f"{name}.json"),
                     "--trials", "100", "--out-json",
                     str(tmp_path / "out.json")]) == 0
    assert [r.getMessage() for r in caplog.records
            if r.name == "ocrs.optimize"] == [f"probing LP: {summary}"]


@pytest.mark.parametrize("order", ["worst", "identity"])
@pytest.mark.parametrize("name", ["prophet-u52", "prophet-u62"])
def test_golden_prophet_reports(tmp_path, capsys, name, order):
    """Reports and per-trial CSVs of the prophet-worst-u52 benchmark instance
    at seed 0 and of a 6-element U(6,2) instance, the largest that the worst
    order is searched for exhaustively, under the worst and the identity
    order, stay byte for byte what they were when recorded; stderr stays
    empty at the default log level."""
    out, csv_out = tmp_path / "report.json", tmp_path / "values.csv"
    assert main(["prophet", os.path.join(GOLDEN, f"{name}.json"), "--order",
                 order, "--trials", "2000", "--seed", "3", "--out-json",
                 str(out), "--out-csv", str(csv_out)]) == 0
    assert capsys.readouterr().err == ""
    for produced, suffix in [(out, "report.json"), (csv_out, "csv")]:
        with open(os.path.join(GOLDEN, f"{name}.{order}.{suffix}"),
                  "rb") as fh:
            assert produced.read_bytes() == fh.read()


@pytest.mark.parametrize("command,name", [
    ("submodular", "submodular-probing5"),
    ("submodular", "submodular-graphic6"),
    ("submodular", "submodular-cut6"),
    ("submodular", "submodular-cover12"),
    ("submodular", "submodular-cut12"),
    ("validate-matroid", "validate-graphic7"),
])
def test_golden_submodular_and_validate_reports(tmp_path, capsys, command,
                                                name):
    """Reports of submodular probing with a graphic outer matroid (the
    direction LPs and the chain read one rank table), monotone submodular
    OCRS and the half-subsample mode of a directed cut on graphic K4 and
    on U(12,3) (a coverage over 20 items, and a 12-node cut), and the
    audit of K4 plus a parallel edge stay byte for byte what they were
    when recorded."""
    out = tmp_path / "report.json"
    extra = ([] if command == "validate-matroid"
             else ["--trials", "3000", "--seed", "3"])
    assert main([command, os.path.join(GOLDEN, f"{name}.json"), *extra,
                 "--out-json", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(os.path.join(GOLDEN, f"{name}.report.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("command,instance,tables", [
    ("probing", os.path.join(GOLDEN, "probing6.json"), 2),
    ("prophet", _PROPHET, 1),
    ("submodular", _SUBMODULAR6, 2),
], ids=["probing", "prophet", "submodular-probing"])
def test_one_rank_table_per_matroid(tmp_path, monkeypatch, command, instance,
                                    tables):
    """Every caller reads a matroid's rank table from
    ``Matroid.polytope()``, so a command fills one table per matroid:
    the LP, the chains, the relaxation and the membership asserts share
    it."""
    built = []
    fill = MatroidPolytope.__init__

    def counting_fill(self, m):
        built.append(m)
        fill(self, m)

    monkeypatch.setattr(MatroidPolytope, "__init__", counting_fill)
    path = (instance if isinstance(instance, str)
            else _write(tmp_path, "inst.json", instance))
    assert main([command, path, "--trials", "200",
                 "--out-json", str(tmp_path / "out.json")]) in (0, 1)
    assert len(built) == tables
    assert len({id(m) for m in built}) == tables


_LOOPS = {"type": "partition", "blocks": [[0, 1], [2, 3]],
          "capacities": [1, 0]}


def test_matroid_with_loops_verifies(tmp_path):
    """Elements 2 and 3 are loops: x is 0 on them, they never arrive, are
    never selectable and the bound does not cover them."""
    inst = _write(tmp_path, "loops.json", {"matroid": _LOOPS})
    out = tmp_path / "out.json"
    assert main(["verify-selectability", inst, "--scheme", "matroid",
                 "--trials", "20000", "--out-json", str(out)]) == 0
    rows = json.loads(out.read_text())["elements"]
    assert [(r["estimate"], r["bound"]) for r in rows[2:]] == [(0.0, 0.0)] * 2
    assert all(r["bound"] == 0.5 and r["pass"] for r in rows[:2])


def test_loop_with_positive_x_is_rejected(tmp_path, capsys):
    inst = _write(tmp_path, "loops.json", {"matroid": _LOOPS,
                                           "x": [0.2, 0.2, 0.1, 0.0]})
    out = tmp_path / "out.json"
    assert main(["verify-selectability", inst, "--scheme", "matroid",
                 "--trials", "1000", "--out-json", str(out)]) == 2
    err = _input_error_line(capsys)
    assert "x is outside b * P" in err and "element 2 is a loop" in err
    assert not out.exists()


# the instances of the benchmark's matroid-k6 and matching-k10 workloads at
# seed 0 (graphic K6 and K10, labels and edge order shuffled)
_K6_SEED0 = [[0, 4], [0, 1], [1, 4], [0, 3], [3, 4], [2, 3], [1, 3], [3, 5],
             [1, 5], [1, 2], [2, 5], [0, 2], [4, 5], [0, 5], [2, 4]]
_K10_SEED0 = [[4, 6], [0, 8], [6, 9], [3, 8], [3, 7], [4, 7], [1, 7], [2, 9],
              [1, 8], [1, 6], [7, 8], [5, 8], [3, 6], [2, 4], [1, 9], [2, 5],
              [0, 6], [3, 9], [3, 5], [0, 7], [2, 8], [1, 3], [4, 9], [2, 6],
              [3, 4], [1, 2], [7, 9], [2, 3], [8, 9], [0, 5], [4, 8], [1, 5],
              [4, 5], [6, 7], [5, 7], [2, 7], [0, 4], [0, 3], [0, 2], [5, 9],
              [1, 4], [5, 6], [0, 1], [0, 9], [6, 8]]


@pytest.mark.parametrize("scheme,instance,trials,calls", [
    ("matroid", {"matroid": {"type": "graphic", "vertices": 6,
                             "edges": _K6_SEED0}}, 600_000, 7_813),
    ("matching", {"graph": {"vertices": 10, "edges": _K10_SEED0}}, 150_000,
     45),
], ids=["matroid-k6", "matching-k10"])
def test_selectable_mask_runs_once_per_run_set_or_block_pair(
        tmp_path, monkeypatch, scheme, instance, trials, calls):
    """The counting loop asks a fixed family once per distinct active set
    of the run: 7,813 of 600,000 trials on matroid-k6 at seed 0.  A
    matching asks once per edge, for its survivor mask when it is bound,
    and computes every trial's row from those by array passes: 45 calls
    for 150,000 trials on matching-k10 at seed 0.  Counted by wrapping the
    methods."""
    count = 0
    for cls in (schemes.MatroidChainFamily, schemes.MatchingFamily):
        method = cls.selectable_mask

        def counting(self, active_mask, method=method):
            nonlocal count
            count += 1
            return method(self, active_mask)

        monkeypatch.setattr(cls, "selectable_mask", counting)
    path = _write(tmp_path, "inst.json", instance)
    assert main(["verify-selectability", path, "--scheme", scheme,
                 "--b", "0.5", "--trials", str(trials), "--seed", "0",
                 "--workers", "1", "--out-json",
                 str(tmp_path / "out.json")]) == 0
    assert count == calls
