"""CLI surface: subcommands, exit codes, deterministic output."""

import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treealg
from treealg import encode, foliage, skeleton
from treealg.cli import run

from helpers import comb


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# Deep inputs for every command that reads a tree, a table or a function
# spec: argv, files, exit code, stdout where it is short to state, and
# whether the row also runs on combs of 100,000 leaves.  "{tree}" is a comb,
# "{poly}" the same comb with the variable as its deepest leaf, "{a}", "{b}"
# and "{c}" the comb with that letter there, so the images of "{poly}";
# "{foliage}" and "{skeleton}" are the comb's two words.
DEEP_RUNS = [
    (("parse", "{tree}"), {}, 0, "{tree}", False),
    (("skeleton", "{tree}"), {}, 0, "{skeleton}", False),
    (("foliage", "{tree}"), {}, 0, "{foliage}", False),
    (("rebuild", "--foliage", "{foliage}", "--skeleton", "{skeleton}"), {}, 0, "{tree}", False),
    (("project", "--sigma", "{tree}"), {}, 0, "{skeleton}", False),
    (("graft", "a->{tree}", "<b*c>"), {}, 0, "<b*c>", False),
    (("graft", "b-><b*c>", "{tree}"), {}, 0, None, False),
    (("closure", "--pairs", "{tmp}/pairs.txt", "--bound", "2"), {"pairs.txt": "{tree} a\n"}, 1, None, False),
    (("synthesize", "--table", "{tmp}/t.txt"), {"t.txt": "a {a}\nb {b}\nc {c}\n"}, 0, "{poly}", True),
    (("synthesize", "--table", "{tmp}/t.txt"), {"t.txt": "a {tree}\nb {tree}\nc {tree}\n"}, 0, "{tree}", False),
    (("synthesize", "--table", "{tmp}/t.txt"), {"t.txt": "a {a}\nb {a}\nc {c}\n"}, 1, None, False),
    (("word-synthesize", "--table", "{tmp}/t.txt"), {"t.txt": "a {foliage}\nb {foliage}\nc {foliage}\n"}, 0,
     "{foliage}", False),
    (("check-cp", "--function", "const:{tree}", "--bound", "1"), {}, 0, None, True),
    (("check-cp", "--function", "poly:{poly}", "--bound", "1"), {}, 0, None, True),
    (("check-cp", "--function", "table:{tmp}/fn.txt", "--bound", "1"), {"fn.txt": "a {a}\nb {b}\nc {c}\n"}, 0, None,
     False),
    (("check-cp", "--function", "table:{tmp}/fn.txt", "--bound", "1"), {"fn.txt": "a {a}\nb {c}\nc {b}\n"}, 3, None,
     False),
    (("to-poly", "--function", "const:{tree}", "--verify-bound", "1"), {}, 0, "{tree}", True),
    (("to-poly", "--function", "poly:{poly}", "--verify-bound", "1"), {}, 0, "{poly}", True),
    (("to-poly", "--function", "table:{tmp}/fn.txt", "--verify-bound", "1"), {"fn.txt": "a {a}\nb {b}\nc {c}\n"},
     0, "{poly}", False),
    (("to-poly", "--function", "table:{tmp}/fn.txt", "--verify-bound", "2"), {"fn.txt": "a {a}\nb {b}\nc {c}\n"},
     1, None, False),
    (("to-poly", "--function", "table:{tmp}/fn.txt", "--verify-bound", "1"), {"fn.txt": "a {b}\nb {a}\nc {c}\n"},
     3, None, False),
]
DEEP_CASES = [
    pytest.param(leaves, left, argv, files, code, stdout, id=f"{argv[0]}#{i}-{'left' if left else 'right'}-{leaves}")
    for leaves in (1_200, 100_000)
    for left in (True, False)
    for i, (argv, files, code, stdout, huge) in enumerate(DEEP_RUNS)
    if huge or leaves == 1_200
]


@functools.lru_cache(maxsize=1)
def deep_words(leaves, left):
    """The words that fill the placeholders of DEEP_RUNS, for one comb."""
    tree = comb(leaves, left)
    words = {"tree": encode(tree), "foliage": foliage(tree), "skeleton": skeleton(tree)}
    for bottom, name in (("x", "poly"), ("a", "a"), ("b", "b"), ("c", "c")):
        words[name] = encode(comb(leaves, left, bottom))
    return words


# One CLI run per row: argv, input files, exit code, stdout and stderr, for the
# README tour and the error cases, each plain, with --json and with --unicode.
# "{tmp}" stands for the directory holding the files, "{comb}" for a left comb
# of 1,200 leaves. argparse's usage messages are among the pinned bytes: they
# wrap at the terminal width, so the test fixes it, and vary across Python versions.
PINNED_RUNS = [
    json.loads(line) for line in (Path(__file__).parent / "cli_outputs.jsonl").read_text().splitlines()
]


class TestBasics:
    def test_parse(self):
        code, out, _ = invoke("parse", "<<a*c>*b>")
        assert code == 0 and out == "<<a*c>*b>\n"

    def test_parse_json(self):
        code, out, _ = invoke("parse", "<<a*c>*b>", "--json")
        assert code == 0
        assert json.loads(out) == {
            "tree": "<<a*c>*b>",
            "leaves": 3,
            "skeleton": "<<*>*>",
            "foliage": "acb",
        }

    def test_skeleton(self):
        code, out, _ = invoke("skeleton", "<<a*c>*b>")
        assert code == 0 and out == "<<*>*>\n"

    def test_foliage(self):
        code, out, _ = invoke("foliage", "<a*<c*b>>")
        assert code == 0 and out == "acb\n"

    def test_rebuild(self):
        code, out, _ = invoke("rebuild", "--foliage", "acb", "--skeleton", "<<*>*>")
        assert code == 0 and out == "<<a*c>*b>\n"

    def test_rebuild_single_leaf(self):
        code, out, _ = invoke("rebuild", "--foliage", "a", "--skeleton", "")
        assert code == 0 and out == "a\n"

    def test_graft(self):
        code, out, _ = invoke("graft", "a-><b*c>", "<a*b>")
        assert code == 0 and out == "<<b*c>*b>\n"

    def test_substitute(self):
        code, out, _ = invoke("substitute", "a=>bc", "aba")
        assert code == 0 and out == "bcbbc\n"

    def test_project_sigma(self):
        code, out, _ = invoke("project", "--sigma", "<<a*c>*b>")
        assert code == 0 and out == "<<*>*>\n"

    def test_project_phi(self):
        code, out, _ = invoke("project", "--phi", "<<a*c>*b>")
        assert code == 0 and out == "acb\n"

    def test_unicode_rendering(self):
        code, out, _ = invoke("skeleton", "<<a*c>*b>", "--unicode")
        assert code == 0 and out == "◂◂•▸•▸\n"

    def test_enumerate(self):
        code, out, _ = invoke("enumerate", "--bound", "2")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 12 and lines[0] == "a"

    def test_enumerate_json(self):
        code, out, _ = invoke("enumerate", "--bound", "1", "--json")
        assert code == 0
        assert json.loads(out) == {"count": 3, "trees": ["a", "b", "c"]}

    def test_custom_alphabet(self):
        code, out, _ = invoke("enumerate", "--bound", "1", "--alphabet", "pq")
        assert code == 0 and out == "p\nq\n"


class TestDeepTrees:
    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_views_of_a_comb(self, left):
        t = comb(100_000, left)
        word = encode(t)
        assert invoke("parse", word) == (0, word + "\n", "")
        assert invoke("skeleton", word) == (0, skeleton(t) + "\n", "")
        assert invoke("foliage", word) == (0, foliage(t) + "\n", "")
        assert invoke("rebuild", "--foliage", foliage(t), "--skeleton", skeleton(t)) == (0, word + "\n", "")

    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_graft_of_a_comb(self, left):
        word = encode(comb(100_000, left))
        assert invoke("graft", "a-><b*c>", word) == (0, word.replace("a", "<b*c>") + "\n", "")

    @pytest.mark.parametrize("leaves, left, argv, files, code, stdout", DEEP_CASES)
    def test_deep_inputs(self, tmp_path, leaves, left, argv, files, code, stdout):
        # every run ends in an exit code, and no exception leaves run
        fills = dict(deep_words(leaves, left), tmp=str(tmp_path))
        for name, content in files.items():
            (tmp_path / name).write_text(content.format(**fills))
        result = invoke(*(arg.format(**fills) for arg in argv))
        assert result[0] == code in (0, 1, 3)
        if stdout is not None:
            assert result[1:] == (stdout.format(**fills) + "\n", "")

    @pytest.mark.parametrize("command", ["check-cp", "to-poly"])
    def test_repeated_deep_key_is_malformed(self, tmp_path, command):
        # a key has one spelling, so a repeat is found on its text and no trees are compared
        word = encode(comb(1_200))
        table = tmp_path / "fn.txt"
        table.write_text(f"a b\n{word} a\n{word} b\n")
        code, out, err = invoke(command, "--function", f"table:{table}", "--json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "MalformedTable", "detail": f"{table}:3: duplicate entry for {word!r}"}

    def test_check_cp_of_a_deep_constant(self):
        # the evidence checks compare encodings, so no step recurses once per level
        spec = f"const:{encode(comb(1_200))}"
        code, out, err = invoke("check-cp", "--function", spec, "--bound", "2", "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["function"] == spec and report["verdict"] == "evidence-of-cp"


class TestErrorsAndExitCodes:
    def test_domain_error_is_exit_one(self):
        code, out, err = invoke("parse", "<a*b")
        assert code == 1 and out == ""
        assert "MalformedTree" in err

    def test_domain_error_json_payload(self):
        code, out, _ = invoke("rebuild", "--foliage", "ab", "--skeleton", "", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "LengthMismatch"
        assert payload["witness"] == {"foliage": "ab", "skeleton": ""}

    def test_usage_error_is_exit_two(self):
        code, _, _ = invoke("no-such-command")
        assert code == 2

    def test_missing_argument_is_exit_two(self):
        code, _, _ = invoke("rebuild", "--foliage", "abc")
        assert code == 2

    def test_bad_alphabet_is_exit_two(self):
        code, _, err = invoke("enumerate", "--bound", "1", "--alphabet", "aa")
        assert code == 2 and "usage error" in err

    def test_small_alphabet_rejected_for_synthesis_commands(self):
        code, _, err = invoke("check-cp", "--function", "identity", "--alphabet", "ab")
        assert code == 2 and "at least three letters" in err

    def test_bad_grafting_literal(self):
        code, _, err = invoke("graft", "ab>tree", "a")
        assert code == 2 and "usage error" in err

    def test_universe_cap(self):
        code, _, err = invoke("enumerate", "--bound", "3", "--cap", "10")
        assert code == 1 and "UniverseTooLarge" in err

    @pytest.mark.parametrize("command", [
        ["closure", "--pairs", "{pairs}"],
        ["enumerate"],
        ["check-cp", "--function", "mirror"],
    ])
    @pytest.mark.parametrize("bound", ["22", "4100", "100000"])
    def test_huge_bound_is_universe_too_large(self, tmp_path, command, bound):
        # counting stops past 2**63 trees, so no bound is slow, and the count never nears 4,300 digits
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("a b\n")
        argv = [arg.format(pairs=pairs) for arg in command]
        code, out, err = invoke(*argv, "--bound", bound, "--json")
        payload = json.loads(out)
        assert (code, err, payload["error"]) == (1, "", "UniverseTooLarge")
        assert payload["witness"]["exact"] is False and payload["witness"]["required"] > 2**63
        assert "would hold more than" in payload["detail"]
        code, out, err = invoke(*argv, "--bound", bound)
        assert code == 1 and out == "" and err.startswith("error: UniverseTooLarge: universe would hold more than ")

    @pytest.mark.parametrize("command", [
        ["closure", "--pairs", "{pairs}"],
        ["enumerate"],
        ["check-cp", "--function", "mirror"],
    ])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_bound_zero_is_usage_error(self, tmp_path, command, flags):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("a b\n")
        argv = [arg.format(pairs=pairs) for arg in command]
        code, out, err = invoke(*argv, "--bound", "0", *flags)
        assert (code, out, err) == (2, "", "usage error: max_leaves must be >= 1\n")

    @pytest.mark.parametrize("argv", [["--help"], ["closure", "--help"]])
    def test_help_goes_to_given_stdout(self, argv, capsys):
        code, out, err = invoke(*argv)
        assert code == 0 and out.startswith("usage: treealg") and err == ""
        assert capsys.readouterr() == ("", "")


class TestClosure:
    FIXTURE = (
        '{"universe_size":12,"classes":[["a","b"],["c"],'
        '["<a*a>","<a*b>","<b*a>","<b*b>"],["<a*c>","<b*c>"],'
        '["<c*a>","<c*b>"],["<c*c>"]]}'
    )

    def test_fixture_bytes(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("a b\n")
        code, out, _ = invoke("closure", "--pairs", str(pairs), "--bound", "2")
        assert code == 0 and out == self.FIXTURE + "\n"

    def test_deterministic(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("a b\nc <a*a>\n")
        first = invoke("closure", "--pairs", str(pairs), "--bound", "3")
        second = invoke("closure", "--pairs", str(pairs), "--bound", "3")
        assert first == second and first[0] == 0

    def test_pair_out_of_universe(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("<<a*b>*<a*b>> a\n")
        code, _, err = invoke("closure", "--pairs", str(pairs), "--bound", "2")
        assert code == 1 and "PairOutOfUniverse" in err

    def test_bad_pair_line(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("a b c\n")
        code, _, err = invoke("closure", "--pairs", str(pairs), "--bound", "2")
        assert code == 1 and "MalformedTable" in err


class TestSynthesisCommands:
    def test_synthesize(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("a <a*c>\nb <b*c>\nc <c*c>\n")
        code, out, _ = invoke("synthesize", "--table", str(table))
        assert code == 0 and out == "<x*c>\n"

    def test_synthesize_bad_table(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("a b\nb a\nc c\n")
        code, out, err = invoke("synthesize", "--table", str(table), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "HypothesesViolated"
        assert payload["witness"]["pair"] == ["a", "c"]

    def test_word_synthesize(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("a ac\nb bc\nc cc\n")
        code, out, _ = invoke("word-synthesize", "--table", str(table))
        assert code == 0 and out == "xc\n"

    def test_word_synthesize_negative(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("a ab\nb ba\nc ca\n")
        code, out, _ = invoke("word-synthesize", "--table", str(table), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["witness"]["pair"] == ["a", "c"]
        assert payload["witness"]["position"] == 1


class TestCpCommands:
    def test_check_cp_mirror_fails_with_witness(self):
        code, out, _ = invoke("check-cp", "--function", "mirror", "--bound", "4")
        assert code == 3
        report = json.loads(out)
        assert report["verdict"] == "not-cp"
        assert report["witness"] is not None
        failed = [t["name"] for t in report["tests"] if not t["passed"]]
        assert "idempotent-grafting" in failed

    def test_check_cp_identity_passes(self):
        code, out, _ = invoke("check-cp", "--function", "identity", "--bound", "3")
        assert code == 0
        assert json.loads(out)["verdict"] == "evidence-of-cp"

    def test_check_cp_deterministic(self):
        first = invoke("check-cp", "--function", "poly:<x*c>", "--bound", "3")
        second = invoke("check-cp", "--function", "poly:<x*c>", "--bound", "3")
        assert first == second

    @pytest.mark.parametrize("args", [["--bound", "9"], ["--bound", "3", "--cap", "10"]])
    def test_check_cp_universe_cap(self, args):
        code, out, err = invoke("check-cp", "--function", "identity", *args)
        assert code == 1 and out == "" and "UniverseTooLarge" in err
        code, out, err = invoke("check-cp", "--function", "identity", "--json", *args)
        assert code == 1 and err == ""
        assert json.loads(out)["error"] == "UniverseTooLarge"

    def test_to_poly_identity(self):
        code, out, _ = invoke("to-poly", "--function", "identity", "--verify-bound", "4")
        assert code == 0 and out == "x\n"

    def test_to_poly_mirror_not_cp(self):
        code, out, err = invoke("to-poly", "--function", "mirror", "--verify-bound", "4")
        assert code == 3 and "NotCP" in err

    def test_to_poly_mirror_json_witness(self):
        code, out, _ = invoke(
            "to-poly", "--function", "mirror", "--verify-bound", "4", "--json"
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["error"] == "NotCP"
        assert payload["stage"] == "verification"
        assert len(payload["witness"]) == 2

    def test_const_function(self):
        code, out, _ = invoke("to-poly", "--function", "const:<a*b>", "--verify-bound", "3")
        assert code == 0 and out == "<a*b>\n"


def assert_unreadable(argv, path, detail):
    args = [arg.format(path) for arg in argv]
    code, out, err = invoke(*args)
    assert code == 1 and out == "" and err == f"error: UnreadableFile: {detail}\n"
    code, out, err = invoke(*args, "--json")
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "error": "UnreadableFile",
        "detail": detail,
        "witness": {"path": path},
    }


class TestInputFiles:
    def test_bad_function_table_line(self, tmp_path):
        table = tmp_path / "fn.txt"
        table.write_text("a b\nb c d\n")
        code, out, err = invoke("check-cp", "--function", f"table:{table}", "--bound", "2")
        assert code == 1 and out == ""
        assert err == f"error: MalformedTable: {table}:2: expected 'TREE TREE'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("closure", "--pairs", "{}"),
            ("synthesize", "--table", "{}"),
            ("word-synthesize", "--table", "{}"),
            ("check-cp", "--function", "table:{}"),
            ("to-poly", "--function", "table:{}"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_file(self, tmp_path, argv):
        path = str(tmp_path / "nope.txt")
        assert_unreadable(argv, path, f"cannot read {path}: No such file or directory")

    @pytest.mark.parametrize(
        "argv",
        [("closure", "--pairs", "{}"), ("check-cp", "--function", "table:{}")],
        ids=lambda argv: argv[0],
    )
    def test_file_not_utf8(self, tmp_path, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"a \xff\n")
        reason = "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"
        assert_unreadable(argv, str(path), f"cannot read {path}: {reason}")

    @pytest.mark.parametrize(
        "argv",
        [("check-cp", "--bound", "1"), ("to-poly", "--verify-bound", "1")],
        ids=lambda argv: argv[0],
    )
    def test_conflicting_function_table_lines(self, tmp_path, argv):
        table = tmp_path / "fn.txt"
        table.write_text("a b\nb b\nc c\na c\n")
        args = (*argv, "--function", f"table:{table}")
        detail = f"{table}:4: duplicate entry for 'a'"
        assert invoke(*args) == (1, "", f"error: MalformedTable: {detail}\n")
        code, out, err = invoke(*args, "--json")
        assert code == 1 and err == ""
        assert json.loads(out) == {"error": "MalformedTable", "detail": detail}

    def test_directory_is_unreadable(self, tmp_path):
        code, _, err = invoke("closure", "--pairs", str(tmp_path))
        assert code == 1 and err.startswith("error: UnreadableFile: cannot read ")


class TestHashSeed:
    """Output bytes do not depend on the interpreter's string hash seed."""

    def _run(self, argv, hash_seed, cwd):
        src = str(Path(treealg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "treealg.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    @pytest.mark.parametrize("argv", [
        ["closure", "--pairs", "F", "--bound", "5"],
        ["check-cp", "--function", "mirror", "--bound", "4", "--json"],
    ])
    def test_stdout_identical_across_hash_seeds(self, tmp_path, argv):
        (tmp_path / "F").write_text("a <b*c>\n<a*b> <b*a>\n")
        first, second = (self._run(argv, seed, tmp_path) for seed in ("0", "1"))
        assert first == second and first[1]


@pytest.mark.parametrize("row", PINNED_RUNS, ids=lambda row: " ".join(row["argv"]))
def test_pinned_output(tmp_path, monkeypatch, row):
    monkeypatch.setenv("COLUMNS", "80")
    for name, content in row["files"].items():
        (tmp_path / name).write_bytes(content.encode("utf-8", "surrogateescape"))
    word = encode(comb(1_200))
    args = [arg.replace("{tmp}", str(tmp_path)).replace("{comb}", word) for arg in row["argv"]]
    code, out, err = invoke(*args)
    here = str(tmp_path)
    assert (code, out.replace(here, "{tmp}"), err.replace(here, "{tmp}")) == (
        row["code"],
        row["stdout"],
        row["stderr"],
    )
