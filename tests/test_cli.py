"""CLI behaviour: exit codes, formats, determinism."""

import argparse
import io
import json
import math
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coprimegraph import cli, groups, theorems
from coprimegraph.cli import _json_text, main
from coprimegraph.embedding import parse_edge_list
from coprimegraph.errors import InputError
from coprimegraph.groups import DEFAULT_MAX_ORDER
from helpers import embed_oracle, nested_product


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_z30_table(capsys):
    code, out, _ = run(capsys, "analyze", "Z:30")
    assert code == 0
    assert "diameter    3" in out
    assert "girth       3" in out
    assert "unicyclic   True" in out


def test_analyze_a4_json(capsys):
    code, out, _ = run(capsys, "analyze", "A4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == {"core": "CompleteBipartite", "args": [4, 4], "isolated": 0}
    assert payload["diameter"] == 2


def test_analyze_prime_order_exits_3(capsys):
    code, _, err = run(capsys, "analyze", "Z:7")
    assert code == 3
    assert "undefined" in err


def test_analyze_trivial_exits_3(capsys):
    code, _, _ = run(capsys, "analyze", "Z:1")
    assert code == 3


def test_analyze_parse_error_exits_2(capsys):
    code, _, _ = run(capsys, "analyze", "Y:30")
    assert code == 2
    code, _, _ = run(capsys, "analyze", "Z:abc")
    assert code == 2
    code, _, _ = run(capsys, "analyze", "SD:7,3,3")
    assert code == 2


def test_analyze_cap_exceeded_exits_4(capsys):
    code, _, err = run(capsys, "analyze", "D:200", "--max-order", "128")
    assert code == 4
    assert "exceed" in err


def test_exact_cap_exceeded_exits_4(capsys):
    code, _, _ = run(capsys, "analyze", "S3xS3", "--exact-cap", "10")
    assert code == 4


def test_cyclic_exact_cap_is_checked_before_the_gcds(capsys, monkeypatch):
    # Z_963761198400 has 6720 divisors, so P(Z_n) has 6718 vertices
    def no_gcds(*_args, **_kwargs):
        raise AssertionError("the pairwise gcds ran before the exact cap was checked")

    monkeypatch.setattr("coprimegraph.coprime.CoprimeGraph", no_gcds)
    code, _, err = run(capsys, "analyze", "Z:963761198400")
    assert (code, err) == (4, "error: 6718 vertices exceed the exact-solver cap 64\n")
    code, _, err = run(capsys, "analyze", "Z:7")
    assert code == 3 and "undefined" in err


def test_cyclic_exact_cap_is_checked_before_the_divisors(capsys, monkeypatch):
    # the product of the first 18 primes has 2^18 divisors, so 262142 vertices
    def no_divisors(*_args, **_kwargs):
        raise AssertionError("the divisors were listed before the exact cap was checked")

    monkeypatch.setattr("coprimegraph.coprime.divisors", no_divisors)
    code, _, err = run(capsys, "analyze", "Z:117288381359406970983270")
    assert (code, err) == (4, "error: 262142 vertices exceed the exact-solver cap 64\n")


def test_analyze_byte_identical_runs(capsys):
    _, out1, _ = run(capsys, "analyze", "Z:60", "--format", "json")
    _, out2, _ = run(capsys, "analyze", "Z:60", "--format", "json")
    assert out1 == out2


def test_export_dot_z30(capsys):
    code, out, _ = run(capsys, "export", "Z:30")
    assert code == 0
    assert out.count("--") == 6
    assert out.count("label=") == 6
    assert "rotation system" in out


def test_export_dot_counts_for_z210(capsys):
    code, out, _ = run(capsys, "export", "Z:210")
    assert code == 0
    assert out.count("label=") == 14
    assert out.count("--") == 25


def test_export_dot_d6(capsys):
    code, out, _ = run(capsys, "export", "D:6")
    assert code == 0
    assert out.count("label=") == 14
    assert out.count("--") == 10


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", "Z:12", "--format", "json")
    assert code == 0
    assert json.loads(out)["edges"] == [[0, 1], [1, 2]]


def test_export_deterministic(capsys):
    _, out1, _ = run(capsys, "export", "Z:210")
    _, out2, _ = run(capsys, "export", "Z:210")
    assert out1 == out2


def test_verify_default_catalog_passes(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "100")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0


def test_verify_table_format(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "40", "--format", "table")
    assert code == 0
    assert "checks passed" in out


def test_verify_wrong_expectation_exits_1(tmp_path, capsys):
    catalog = tmp_path / "bad.json"
    catalog.write_text(
        json.dumps(
            {"entries": [{"spec": "Z:6", "order": 6, "expect": {"girth": 3}}]}
        )
    )
    code, out, err = run(capsys, "verify", "--catalog", str(catalog))
    assert code == 1
    assert "Z:6" in err and "girth" in err


def test_verify_empty_catalog_warns_and_exits_0(tmp_path, capsys):
    catalog = tmp_path / "empty.json"
    catalog.write_text('{"entries": []}')
    code, out, err = run(capsys, "verify", "--catalog", str(catalog))
    assert code == 0
    assert "0 entries" in err
    # the report is written in the format asked for, here the default JSON
    assert json.loads(out)["summary"] == {
        "checks": 0, "failed": 0, "passed": 0, "skipped_entries": []
    }
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    code, out, err = run(capsys, "verify", "--catalog", str(catalog), "--format", "table")
    assert code == 0
    assert "0 entries" in err
    assert out == "total: 0/0 checks passed, 0 entries skipped\n"


MALFORMED_CATALOGS = {
    "entry-without-spec": ('{"entries":[{}]}', "'spec'"),
    "entries-not-objects": ("[1,2]", "not an object"),
    "order-not-an-integer": ('{"entries":[{"spec":"Q8","order":"8"}]}', "'order'"),
}


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["verify", "--jobs", "2"], ["catalog"]],
    ids=["verify", "verify-jobs-2", "catalog"],
)
@pytest.mark.parametrize("probe", sorted(MALFORMED_CATALOGS))
def test_malformed_catalog_exits_2(tmp_path, capsys, argv, probe):
    text, reason = MALFORMED_CATALOGS[probe]
    catalog = tmp_path / "malformed.json"
    catalog.write_text(text)
    code, out, err = run(capsys, *argv, "--catalog", str(catalog))
    assert code == 2
    assert out == ""
    assert "catalog entry 0" in err and reason in err
    assert "Traceback" not in err


def test_verify_jobs_flag(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "36", "--jobs", "2")
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0


def test_embed_triangle_file(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "embed", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["modulus"] == 30
    assert sorted(payload["labels"].values()) == [2, 3, 5]


def test_embed_single_edge(tmp_path, capsys):
    path = tmp_path / "edge.txt"
    path.write_text("0 1\n")
    code, out, _ = run(capsys, "embed", str(path))
    assert code == 0
    assert json.loads(out)["modulus"] == 6


def test_embed_five_vertex_example(tmp_path, capsys):
    path = tmp_path / "five.txt"
    edges = [(a, b) for a in (0, 2, 3) for b in (1, 4)]
    path.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
    code, out, _ = run(capsys, "embed", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["mis"] == [[0, 2, 3], [1, 4]]
    assert payload["modulus"] == 72


def test_embed_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 a\n")
    code, _, _ = run(capsys, "embed", str(path))
    assert code == 2


def test_embed_mis_cap_exits_4(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("\n".join(f"{i} {i + 1}" for i in range(24)) + "\n")
    code, _, _ = run(capsys, "embed", str(path))
    assert code == 4


def test_embed_output_file(tmp_path, capsys):
    src = tmp_path / "edge.txt"
    src.write_text("0 1\n")
    dst = tmp_path / "cert.json"
    code, out, _ = run(capsys, "embed", str(src), "--out", str(dst))
    assert code == 0
    assert out == ""
    assert json.loads(dst.read_text())["modulus"] == 6


# six disjoint triangles and an edge: 3^6 * 2 = 1458 maximal independent
# sets, a 5224-digit modulus and labels of up to 2613 digits
TRIANGLES_20 = "n 20\n" + "".join(
    f"{a} {b}\n" for t in range(0, 18, 3) for a, b in ((t, t + 1), (t, t + 2), (t + 1, t + 2))
) + "18 19\n"


def test_embed_prints_integers_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "triangles20.txt"
    path.write_text(TRIANGLES_20)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "embed", str(path))
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert payload == embed_oracle(parse_edge_list(TRIANGLES_20)).to_json_dict()
    # the writer restores the limit when encoding fails too
    with pytest.raises(TypeError):
        _json_text({"x": object()})
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["embed", "{input}"], "9" * 4301 + " 0\n", "expected integers"),
        (["analyze", "Z:" + "9" * 4301], None, "expected integer for cyclic order"),
    ],
    ids=["edge-id", "cyclic-order"],
)
def test_readers_keep_the_digit_limit(tmp_path, capsys, argv, data, message):
    if data is not None:
        (tmp_path / "input").write_text(data)
    argv = [str(tmp_path / "input") if a == "{input}" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert message in err and "Traceback" not in err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "Z:36" in out
    assert "entries" in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert any(e["spec"] == "A4" for e in payload)


def test_grammar_help_names_every_named_group():
    # "names" is the help text's last item; its value runs to the end
    names = cli.GRAMMAR_HELP.split("\n  names ", 1)[1].split()
    assert names == list(groups.NAMED_GROUPS)


def test_verify_skips_an_undeclared_entry_whose_build_passes_the_bound(tmp_path, capsys):
    path = tmp_path / "s7.json"
    path.write_text('[{"spec": "PERM:7:[0 1 2 3 4 5 6],[0 1]"}]')
    code, out, err = run(capsys, "verify", "--catalog", str(path))
    assert code == 0
    assert err == ""
    assert json.loads(out) == {
        "rows": [],
        "summary": {
            "checks": 0,
            "failed": 0,
            "passed": 0,
            "skipped_entries": ["PERM:7:[0 1 2 3 4 5 6],[0 1]"],
        },
    }


def test_env_var_cap_overrides(capsys, monkeypatch):
    monkeypatch.setenv("COPRIMEGRAPH_MAX_ORDER", "128")
    code, _, err = run(capsys, "analyze", "D:200")
    assert code == 4
    assert "128" in err
    monkeypatch.setenv("COPRIMEGRAPH_EXACT_CAP", "10")
    code, _, _ = run(capsys, "analyze", "S3xS3")
    assert code == 4
    # explicit flags beat the environment
    monkeypatch.setenv("COPRIMEGRAPH_EXACT_CAP", "10")
    code, _, _ = run(capsys, "analyze", "S3xS3", "--exact-cap", "64")
    assert code == 0


def test_env_var_garbage_ignored(capsys, monkeypatch):
    monkeypatch.setenv("COPRIMEGRAPH_MAX_ORDER", "lots")
    code, _, err = run(capsys, "analyze", "Z:30")
    assert code == 0
    assert "ignoring" in err


def _ignored_warnings(err):
    return [line for line in err.splitlines() if line.startswith("warning: ignoring")]


@pytest.mark.parametrize("var", ["COPRIMEGRAPH_MAX_ORDER", "COPRIMEGRAPH_EXACT_CAP"])
@pytest.mark.parametrize(
    "argv, warnings",
    [
        (["analyze", "Z:30"], 1),
        (["verify", "--catalog", "{empty}"], 1),
        (["embed", "{edge}"], 0),
        (["catalog"], 0),
    ],
    ids=["analyze", "verify", "embed", "catalog"],
)
def test_bad_env_cap_is_warned_about_once_where_it_is_read(
    tmp_path, capsys, monkeypatch, var, argv, warnings
):
    (tmp_path / "empty.json").write_text('{"entries": []}')
    (tmp_path / "edge.txt").write_text("0 1\n")
    argv = [a.format(empty=tmp_path / "empty.json", edge=tmp_path / "edge.txt") for a in argv]
    monkeypatch.setenv(var, "lots")
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert len(_ignored_warnings(err)) == warnings, err


def test_an_explicit_flag_reads_no_env_var(capsys, monkeypatch):
    monkeypatch.setenv("COPRIMEGRAPH_EXACT_CAP", "x")
    code, _, err = run(capsys, "analyze", "Z:30", "--exact-cap", "64")
    assert code == 0
    assert _ignored_warnings(err) == []


def test_later_calls_build_no_parser(capsys, monkeypatch, tmp_path):
    run(capsys, "analyze", "Z:30")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = tmp_path / "edge.txt"
    path.write_text("0 1\n")
    for argv in (["analyze", "Z:30"], ["export", "Z:12"], ["embed", str(path)], ["catalog"]):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert built == []


def test_flags_do_not_leak_between_calls(capsys, monkeypatch):
    code, _, _ = run(capsys, "analyze", "S3xS3", "--exact-cap", "64")
    assert code == 0
    monkeypatch.setenv("COPRIMEGRAPH_EXACT_CAP", "10")
    code, _, err = run(capsys, "analyze", "S3xS3")
    assert code == 4, err


def test_unset_caps_take_each_commands_defaults(capsys, monkeypatch):
    seen = {}

    def graph_for_spec(spec, max_order, exact_cap=None):
        seen["analyze"] = (max_order, exact_cap)
        raise InputError("stop")

    def run_catalog(**kwargs):
        seen["verify"] = (kwargs["max_order"], kwargs["exact_cap"])
        raise InputError("stop")

    monkeypatch.delenv("COPRIMEGRAPH_MAX_ORDER", raising=False)
    monkeypatch.delenv("COPRIMEGRAPH_EXACT_CAP", raising=False)
    monkeypatch.setattr("coprimegraph.cli.graph_for_spec", graph_for_spec)
    monkeypatch.setattr("coprimegraph.theorems.run_catalog", run_catalog)
    assert run(capsys, "analyze", "Z:30")[0] == 2
    assert run(capsys, "verify")[0] == 2
    assert seen == {
        "analyze": (DEFAULT_MAX_ORDER, 64),
        "verify": (theorems.DEFAULT_CATALOG_MAX_ORDER, theorems.DEFAULT_CATALOG_EXACT_CAP),
    }


def _refuse(*_args, **_kwargs):
    raise AssertionError("a group table was built")


def _no_tables(monkeypatch):
    for name in ("make_cyclic", "make_dihedral", "make_semidirect_cyclic",
                 "make_direct_product", "make_permutation_group"):
        monkeypatch.setattr(f"coprimegraph.groups.{name}", _refuse)


def _failing_rotation_check(monkeypatch):
    monkeypatch.setattr("coprimegraph.analysis.verify_rotation_system", lambda *a: False)


def _alpha_bug(monkeypatch):
    def independence_number(_adj, _cap):
        raise ValueError("internal bug")

    monkeypatch.setattr("coprimegraph.analysis.independence_number", independence_number)


INVALID_UTF8 = b"0 1\n\xff\xfe 2\n"
MALFORMED_PRODUCT = "X(PERM:3:" + ",".join(["[0 1]"] * 10_000) + ",)"


def _arabic_indic_max_order(monkeypatch):
    monkeypatch.setenv("COPRIMEGRAPH_MAX_ORDER", "\u0661\u0660")


def _negative_exact_cap(monkeypatch):
    monkeypatch.setenv("COPRIMEGRAPH_EXACT_CAP", "-1")


# id: (argv, input file bytes or None, patch or None, exit code or exception)
EXIT_CASES = {
    "ok": (["analyze", "Z:30"], None, None, 0),
    "prime-order": (["analyze", "Z:7"], None, None, 3),
    "trivial": (["analyze", "Z:1"], None, None, 3),
    "unknown-family": (["analyze", "Y:30"], None, None, 2),
    "non-integer": (["analyze", "Z:abc"], None, None, 2),
    "bad-action": (["analyze", "SD:7,3,3"], None, None, 2),
    "large-prime-cofactor": (["analyze", "Z:99999999999999999999999"], None, None, 0),
    "unfactored-cofactor": (["analyze", "Z:100000980001501"], None, None, 4),
    "perm-huge-degree": (["analyze", "PERM:10000000:[0 1]"], None, None, 3),
    "one-factor": (["analyze", "X(Z:2)"], None, None, 2),
    "three-factors": (["analyze", "X(Z:2,Z:3,Z:5)"], None, None, 2),
    # a product with one cut reports its factor's own error
    "product-factor-not-integer": (["analyze", "X(Z:abc,Z:2)"], None, None, 2),
    "product-factor-cycles-share-a-point": (
        ["analyze", "X(Z:2,PERM:5:[0 1],[1 2]x[2 3 4])"], None, None, 2,
    ),
    # the cap is checked before the graph's rows are built
    "edge-header-billion-vertices": (["embed", "{input}"], b"n 1000000000\n0 1\n", None, 4),
    "edge-not-integer": (["embed", "{input}"], b"0 a\n", None, 2),
    "edge-loop": (["embed", "{input}"], b"0 0\n", None, 2),
    "edge-out-of-range": (["embed", "{input}"], b"n 2\n0 5\n", None, 2),
    "edge-list-not-utf8": (["embed", "{input}"], INVALID_UTF8, None, 2),
    "catalog-truncated": (["verify", "--catalog", "{input}"], b'{"entries": [{"spec"', None, 2),
    "dihedral-over-cap": (["analyze", "D:1500"], None, _no_tables, 4),
    "product-over-cap": (["analyze", "X(D:40,D:40)"], None, _no_tables, 4),
    "catalog-over-cap-skipped": (
        ["verify", "--catalog", "{input}"], b'{"entries": [{"spec": "D:3000"}]}', _no_tables, 0,
    ),
    "catalog-over-cap-declared-small": (
        ["verify", "--catalog", "{input}"], b'{"entries": [{"spec": "D:3000", "order": 6}]}',
        _no_tables, 1,
    ),
    "failed-certificate": (["analyze", "Z:30"], None, _failing_rotation_check, 1),
    "internal-bug": (["analyze", "Z:30"], None, _alpha_bug, ValueError),
    "eleven-primes-raised-cap": (
        ["analyze", "Z:200560490130", "--exact-cap", "3000"], None, None, 0,
    ),
    "edgeless-1500-raised-mis-cap": (
        ["embed", "{input}", "--mis-cap", "5000"], b"n 1500\n", None, 0,
    ),
    "s6-export": (["export", "PERM:6:[0 1 2 3 4 5],[0 1]", "--format", "json"], None, None, 0),
    "d1000-export-raised-cap": (
        ["export", "D:1000", "--format", "json", "--max-order", "4096"], None, None, 0,
    ),
    "spec-underscore-digits": (["analyze", "Z:3_0"], None, None, 2),
    "edge-header-arabic-indic-digit": (["embed", "{input}"], "n \u0663\n".encode(), None, 2),
    # seven primes: the alpha check searches all 126 supports
    "verify-510510-raised-caps": (
        ["verify", "--catalog", "{input}", "--max-order", "510510", "--exact-cap", "5000"],
        b'[{"spec": "Z:510510"}]', None, 0,
    ),
    # ten primes: 1022 supports, past the alpha check's bound
    "verify-6469693230-raised-caps": (
        ["verify", "--catalog", "{input}", "--max-order", "6469693230", "--exact-cap", "5000"],
        b'[{"spec": "Z:6469693230"}]', None, 1,
    ),
    "product-depth-600": (["analyze", nested_product(600, "Z:2")], None, None, 2),
    "product-depth-100-trivial": (["analyze", nested_product(100, "Z:1")], None, None, 3),
    # 10,000 top-level commas: trying each one as the cut takes minutes
    "perm-10000-generators-product": (
        ["analyze", "X(PERM:3:" + ",".join(["[0 1]"] * 10_000) + ",Z:2)"], None, None, 0,
    ),
    # cap flags read integers by the spec grammar's rule; argparse refuses the rest
    "max-order-underscore-digits": (["analyze", "Z:30", "--max-order", "1_0"], None, None, SystemExit),
    "exact-cap-arabic-indic-digit": (
        ["analyze", "Z:30", "--exact-cap", "\u0663"], None, None, SystemExit,
    ),
    "jobs-underscore-digits": (["verify", "--jobs", "1_0"], None, None, SystemExit),
    "mis-cap-underscore-digits": (["embed", "{input}", "--mis-cap", "2_0"], b"0 1\n", None, SystemExit),
    "env-max-order-arabic-indic-digits": (["analyze", "A4"], None, _arabic_indic_max_order, 0),
    "named-group-over-cap": (["analyze", "A4", "--max-order", "10"], None, None, 4),
    # the cycles of one generator must be disjoint, so no order of
    # composition is silently assumed
    "perm-cycles-share-a-point": (
        ["analyze", "PERM:4:[0 1 2]x[0 2 1],[0 1]x[2 3]"], None, None, 2,
    ),
    "malformed-10000-generator-product": (["analyze", MALFORMED_PRODUCT], None, None, 2),
    "edge-line-long": (["embed", "{input}"], b"0 1" + b" 2" * 10_000 + b"\n", None, 2),
    "embed-missing-file": (["embed", "{missing}"], None, None, 2),
    # a cap below 0 means nothing: argparse refuses it, the variable is ignored
    "max-order-negative": (["analyze", "A4", "--max-order", "-5"], None, None, SystemExit),
    "exact-cap-negative": (["analyze", "Z:30", "--exact-cap", "-1"], None, None, SystemExit),
    "jobs-negative": (["verify", "--jobs", "-1"], None, None, SystemExit),
    "mis-cap-negative": (["embed", "{input}", "--mis-cap", "-1"], b"0 1\n", None, SystemExit),
    "env-exact-cap-negative": (["analyze", "Z:30"], None, _negative_exact_cap, 0),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_codes(tmp_path, capsys, monkeypatch, case):
    argv, data, patch, want = EXIT_CASES[case]
    if data is not None:
        path = tmp_path / "input"
        path.write_bytes(data)
        argv = [str(path) if a == "{input}" else a for a in argv]
    argv = [str(tmp_path / "missing") if a == "{missing}" else a for a in argv]
    if patch is not None:
        patch(monkeypatch)
    if not isinstance(want, int):
        with pytest.raises(want) as info:
            main(argv)
        # argparse refuses a flag's value with exit 2
        assert want is not SystemExit or info.value.code == 2
        return
    code, out, err = run(capsys, *argv)
    assert code == want, err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (1 if want else 0), err
    if case == "catalog-over-cap-skipped":
        assert json.loads(out)["summary"] == {
            "checks": 0, "passed": 0, "failed": 0, "skipped_entries": ["D:3000"],
        }
    if case == "catalog-over-cap-declared-small":
        [row] = json.loads(out)["rows"]
        assert row["check"] == "build" and not row["passed"]
        assert row["computed"].startswith("OrderCapExceeded:")
    if case == "verify-6469693230-raised-caps":
        [row] = json.loads(out)["rows"]
        assert row["check"] == "build" and not row["passed"]
        assert row["computed"] == (
            "ExactCapExceeded: 1022 prime supports exceed the alpha check's bound "
            f"{theorems.MAX_ALPHA_SUPPORTS}"
        )


def test_cap_flags_and_their_variables_read_ascii_integers(capsys, monkeypatch):
    assert run(capsys, "analyze", "Z:30", "--exact-cap", "+64", "--max-order", " 10")[0] == 0
    monkeypatch.setenv("COPRIMEGRAPH_MAX_ORDER", "\u0661\u0660")
    code, _, err = run(capsys, "analyze", "A4")
    assert code == 0
    assert _ignored_warnings(err) == [
        "warning: ignoring non-integer COPRIMEGRAPH_MAX_ORDER='\u0661\u0660'"
    ]
    with pytest.raises(SystemExit):
        main(["analyze", "A4", "--max-order", "1_0"])
    assert "invalid ascii_int value: '1_0'" in capsys.readouterr().err


def test_a_negative_cap_flag_is_refused_by_name(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "Z:30", "--exact-cap", "-1"])
    assert "argument --exact-cap: must not be negative: '-1'" in capsys.readouterr().err


def test_negative_env_cap_is_warned_about_and_ignored(capsys, monkeypatch):
    monkeypatch.setenv("COPRIMEGRAPH_MAX_ORDER", "-5")
    code, out, err = run(capsys, "analyze", "A4")
    assert code == 0
    assert _ignored_warnings(err) == ["warning: ignoring negative COPRIMEGRAPH_MAX_ORDER='-5'"]
    assert out == run(capsys, "analyze", "A4", "--max-order", str(DEFAULT_MAX_ORDER))[1]


def test_zero_jobs_runs_the_catalog_serially(tmp_path, capsys, monkeypatch):
    path = tmp_path / "catalog.json"
    path.write_text('[{"spec": "Z:30"}, {"spec": "Z:6"}]')
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _refuse)
    assert run(capsys, "verify", "--catalog", str(path), "--jobs", "0")[0] == 0


def test_jobs_beyond_the_entry_count_start_one_worker_per_entry(tmp_path, capsys):
    # a pool as large as --jobs overflowed its semaphore at 2**31
    path = tmp_path / "catalog.json"
    path.write_text('[{"spec": "Z:30"}, {"spec": "S3"}]')
    code, out, err = run(capsys, "verify", "--catalog", str(path), "--jobs", "2147483648")
    assert (code, err) == (0, "")
    assert out == run(capsys, "verify", "--catalog", str(path))[1]


@pytest.mark.parametrize("spec", ["A4", "X(A4,Z:1)"])
def test_a_named_group_over_the_cap_is_named_in_the_refusal(capsys, spec):
    code, _, err = run(capsys, "analyze", spec, "--max-order", "10")
    assert code == 4
    assert err == f"error: {spec}: group order 12 exceeds the bound 10\n"


@pytest.mark.parametrize(
    "spec", ["PERM:4:[0 1 2],[0 1]x[2 3]", "X(PERM:4:[0 1 2],[0 1]x[2 3],Z:2)"]
)
def test_a_permutation_closure_over_the_cap_is_named_in_the_refusal(capsys, spec):
    code, _, err = run(capsys, "analyze", spec, "--max-order", "10")
    assert code == 4
    assert err == "error: PERM:4:[0 1 2],[0 1]x[2 3]: permutation closure exceeded 10 elements\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", MALFORMED_PRODUCT],
        ["analyze", nested_product(100, "Z:1")],
        ["analyze", "Z:" + "3" * 4000 + "_"],
        ["analyze", "PERM:3:[0 1" + " 2" * 1000 + "]"],
        ["analyze", "D:" + "9" * 4000],
        ["analyze", "D:-" + "9" * 4000],
        ["analyze", "SD:" + "9" * 4000 + ",1,1"],
        ["analyze", "PERM:-" + "9" * 4000 + ":[0 1]"],
        ["embed", "{input}"],
    ],
    ids=[
        "malformed-product", "product-depth-100-trivial", "long-integer", "long-cycle",
        "dihedral-over-cap", "dihedral-negative", "semidirect-factors", "perm-degree", "edge-ids",
    ],
)
def test_an_error_line_quotes_at_most_80_characters_of_the_input(tmp_path, capsys, argv):
    (tmp_path / "input").write_text("9" * 4000 + " " + "9" * 4000 + "\n")
    argv = [str(tmp_path / "input") if a == "{input}" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code in (2, 3, 4)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300, err


def test_short_inputs_are_quoted_whole(capsys):
    assert run(capsys, "analyze", "Y:30")[2] == "error: unrecognized group spec 'Y:30'\n"
    assert run(capsys, "analyze", "Z:7")[2] == (
        "error: Z7: the coprime graph is undefined for trivial and prime-order groups (order 7)\n"
    )


def test_embed_reads_stdin_for_a_dash(tmp_path, capsys, monkeypatch):
    data = b"n 3\n0 1\n1 2\n"
    (tmp_path / "path.txt").write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, _ = run(capsys, "embed", "-")
    assert code == 0
    assert json.loads(out)["labels"] == {"0": 2, "1": 3, "2": 4}
    assert run(capsys, "embed", str(tmp_path / "path.txt")) == (0, out, "")


# the indented-JSON writer against json.dumps

# JSON's structural characters, escapes, control characters and non-ASCII
KEYS = st.text(st.sampled_from('[]{},:"\\ \n\t\x00\x1f\x7fé€😀') | st.characters(), max_size=6)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, math.inf, -math.inf, math.nan])
    | KEYS
)


class Row(list):
    """A list subclass: encoded as a list, but never as a flat row."""


# strings that spell a row boundary of the writer at some depth
ROW_SCALARS = SCALARS | st.sampled_from(["],\n  [", "},\n    {", "]", "[", "},", "],\n"])
LIST_ROWS = st.lists(ROW_SCALARS, min_size=1, max_size=4)
ROW_KEYS = KEYS | st.sampled_from(["],\n  [", "},\n    {"])
DICT_ROWS = st.dictionaries(ROW_KEYS, ROW_SCALARS, min_size=1, max_size=4)
FLAT_ROWS = LIST_ROWS | LIST_ROWS.map(tuple) | DICT_ROWS
# an item that keeps a list from being all flat rows of one kind
ODD_ROWS = (
    st.sampled_from([[], (), {}])
    | st.builds(lambda row: [row], LIST_ROWS)
    | st.builds(lambda row: {"k": row}, DICT_ROWS)
    | LIST_ROWS.map(Row)
    | DICT_ROWS.map(Counter)
    | FLAT_ROWS
    | SCALARS
)


@st.composite
def row_lists(draw):
    """A list or tuple of flat list-or-tuple rows or of flat dict rows, with
    an odd item put in at times."""
    rows = draw(
        st.lists(LIST_ROWS | LIST_ROWS.map(tuple), min_size=1, max_size=5)
        | st.lists(DICT_ROWS, min_size=1, max_size=5)
    )
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(ODD_ROWS))
    return draw(st.sampled_from([list, tuple]))(rows)


JSON_VALUES = st.recursive(
    SCALARS | row_lists(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4).map(Counter),
    max_leaves=24,
)


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({})
@example([[], {}, ()])
@example({"b": Counter({"y": 2, "x": 1}), "a": [1, "é\x00", None, True, -0.0]})
@example([Counter(), {"z": [1.5, math.nan, -math.inf]}, (10**30, -(10**30))])
@example({'[]{},:"\\': {"": [{"k": "v"}, [[]]]}})
@example({"mis": [[0, 2], [1, "],\n    ["], (3,)], "rows": [{"a": "},\n    {"}, {"c": None}]})
@example([[1], {"a": 1}])
@example([[1], []])
@example([{"a": 1}, Counter({"b": 2})])
@example([[1], Row([2])])
def test_json_text_is_json_dumps_with_indent_2(value):
    assert _json_text(value) == dumps(value)


@pytest.fixture
def payloads(monkeypatch):
    """Payloads handed to the JSON writer."""
    seen = []
    write = cli._json_text

    def recording(payload):
        seen.append(payload)
        return write(payload)

    monkeypatch.setattr(cli, "_json_text", recording)
    return seen


@pytest.mark.parametrize(
    "argv, want",
    [
        (["analyze", "Z:30", "--format", "json"], 0),
        (["analyze", "S4", "--format", "json"], 0),
        (["export", "Z:30", "--format", "json"], 0),
        (["export", "D:12", "--format", "json"], 0),
        (["verify", "--max-order", "60"], 0),
        (["verify", "--catalog", "WRONG"], 1),
        (["embed", "PATH4"], 0),
        (["catalog", "--format", "json"], 0),
    ],
)
def test_cli_json_is_json_dumps_of_its_payload(tmp_path, capsys, payloads, argv, want):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"entries": [{"spec": "Z:6", "expect": {"girth": 3}}]}))
    path4 = tmp_path / "path4.txt"
    path4.write_text("n 4\n0 1\n1 2\n2 3\n")
    argv = [{"WRONG": str(wrong), "PATH4": str(path4)}.get(a, a) for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == want
    assert len(payloads) == 1
    assert out == dumps(payloads[0])
