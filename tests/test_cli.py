"""CLI behaviour: exit codes, formats, determinism."""

import json

import pytest

from coprimegraph.cli import main


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

    monkeypatch.setattr("coprimegraph.coprime._graph_from_orders", no_gcds)
    code, _, err = run(capsys, "analyze", "Z:963761198400")
    assert (code, err) == (4, "error: 6718 vertices exceed the exact-solver cap 64\n")
    code, _, err = run(capsys, "analyze", "Z:7")
    assert code == 3 and "undefined" in err


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
    code, _, err = run(capsys, "verify", "--catalog", str(catalog))
    assert code == 0
    assert "0 entries" in err


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


def _refuse(*_args, **_kwargs):
    raise AssertionError("a group table was built")


def _no_tables(monkeypatch):
    for name in ("make_cyclic", "make_dihedral", "make_semidirect_cyclic",
                 "make_direct_product", "make_permutation_group"):
        monkeypatch.setattr(f"coprimegraph.groups.{name}", _refuse)


def _failing_rotation_check(monkeypatch):
    monkeypatch.setattr("coprimegraph.analysis.verify_rotation_system", lambda *a: False)


def _girth_bug(monkeypatch):
    def girth(_adj):
        raise ValueError("internal bug")

    monkeypatch.setattr("coprimegraph.analysis.girth", girth)


INVALID_UTF8 = b"0 1\n\xff\xfe 2\n"

# id: (argv, input file bytes or None, patch or None, exit code or exception)
EXIT_CASES = {
    "ok": (["analyze", "Z:30"], None, None, 0),
    "prime-order": (["analyze", "Z:7"], None, None, 3),
    "trivial": (["analyze", "Z:1"], None, None, 3),
    "unknown-family": (["analyze", "Y:30"], None, None, 2),
    "non-integer": (["analyze", "Z:abc"], None, None, 2),
    "bad-action": (["analyze", "SD:7,3,3"], None, None, 2),
    "one-factor": (["analyze", "X(Z:2)"], None, None, 2),
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
    "internal-bug": (["analyze", "Z:30"], None, _girth_bug, ValueError),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_codes(tmp_path, capsys, monkeypatch, case):
    argv, data, patch, want = EXIT_CASES[case]
    if data is not None:
        path = tmp_path / "input"
        path.write_bytes(data)
        argv = [str(path) if a == "{input}" else a for a in argv]
    if patch is not None:
        patch(monkeypatch)
    if not isinstance(want, int):
        with pytest.raises(want):
            main(argv)
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
