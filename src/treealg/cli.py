"""Command-line interface: one subcommand per operation, deterministic output.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 property or
verification failure.  Tree arguments use the ``<left*right>`` grammar;
``--unicode`` renders the three shape characters as triangles/bullet on
output only.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Optional

from .congruence import bounded_closure
from .errors import NotCP, TreeAlgebraError, UnknownLetter
from .morphisms import Grafting, WordSubstitution, graft, substitute
from .polynomials import cp_evidence, cp_to_polynomial, function_from_spec, synthesize
from .selftest import run_selftest
from .trees import (
    Alphabet,
    DEFAULT_UNIVERSE_CAP,
    SHAPE_CHARS,
    UNICODE_SHAPES,
    Universe,
    encode,
    erase_letters,
    erase_shapes,
    foliage,
    leaf_count,
    parse_tree,
    read_pairs,
    read_table,
    rebuild,
    skeleton,
)
from .words import synthesize_word


def _parse_grafting(text: str, alphabet: Alphabet) -> Grafting:
    source, sep, rest = text.partition("->")
    if not sep or len(source) != 1:
        raise ValueError(f"grafting literal must be LETTER->TREE, got {text!r}")
    if source not in alphabet:
        raise UnknownLetter(source, "grafting source")
    return Grafting(source, parse_tree(rest, alphabet))


def _parse_substitution(text: str, alphabet: Alphabet) -> WordSubstitution:
    source, sep, rest = text.partition("=>")
    if not sep or len(source) != 1:
        raise ValueError(f"substitution literal must be LETTER=>WORD, got {text!r}")
    if source not in alphabet:
        raise UnknownLetter(source, "substitution source")
    for ch in rest:
        if ch not in alphabet:
            raise UnknownLetter(ch, "substitution replacement")
    return WordSubstitution(source, rest)


def _letter(text: str) -> Optional[str]:
    return text if len(text) == 1 else None


# A handler returns its payload, trees encoded, for `run` to print; check-cp
# and selftest write their own output and return their exit code instead.


def _cmd_parse(ns, alphabet, out) -> dict:
    tree = parse_tree(ns.tree, alphabet)
    return {"tree": encode(tree), "leaves": leaf_count(tree),
            "skeleton": skeleton(tree), "foliage": foliage(tree)}


def _cmd_skeleton(ns, alphabet, out) -> dict:
    return {"skeleton": skeleton(parse_tree(ns.tree, alphabet))}


def _cmd_foliage(ns, alphabet, out) -> dict:
    return {"foliage": foliage(parse_tree(ns.tree, alphabet))}


def _cmd_rebuild(ns, alphabet, out) -> dict:
    return {"tree": encode(rebuild(ns.foliage, ns.skeleton, alphabet))}


def _cmd_graft(ns, alphabet, out) -> dict:
    grafting = _parse_grafting(ns.grafting, alphabet)
    return {"tree": encode(graft(grafting, parse_tree(ns.tree, alphabet)))}


def _cmd_substitute(ns, alphabet, out) -> dict:
    sub = _parse_substitution(ns.substitution, alphabet)
    for ch in ns.word:
        if ch not in alphabet:
            raise UnknownLetter(ch, "input word")
    return {"word": substitute(sub, ns.word)}


def _cmd_project(ns, alphabet, out) -> dict:
    for ch in ns.word:
        if ch not in alphabet and ch not in SHAPE_CHARS:
            raise UnknownLetter(ch, "input word")
    # Input holds only letters and shape characters, so erasing one kind keeps the other.
    return {"word": erase_letters(ns.word) if ns.sigma else erase_shapes(ns.word)}


def _cmd_enumerate(ns, alphabet, out) -> dict:
    universe = Universe(ns.bound, alphabet, ns.cap)
    return {"count": len(universe), "trees": universe.words()}


def _cmd_closure(ns, alphabet, out) -> dict:
    partition = bounded_closure(read_pairs(ns.pairs, alphabet), ns.bound, alphabet, ns.cap)
    classes = partition.classes(partition.universe.words())
    return {"universe_size": partition.universe_size, "classes": classes}


def _cmd_synthesize(ns, alphabet, out) -> dict:
    table = read_table(ns.table, _letter, lambda text: parse_tree(text, alphabet), "LETTER VALUE")
    return {"polynomial": encode(synthesize(table, alphabet))}


def _cmd_word_synthesize(ns, alphabet, out) -> dict:
    table = read_table(ns.table, _letter, str, "LETTER VALUE")
    return {"polynomial": synthesize_word(table, alphabet)}


def _cmd_check_cp(ns, alphabet, out) -> int:
    # Printed as is: --unicode would turn the '>' of a grafting's '->' into a triangle.
    report = cp_evidence(function_from_spec(ns.function, alphabet), ns.bound, alphabet, ns.seed, ns.cap)
    out.write(json.dumps(report.as_json(), separators=(",", ":")) + "\n")
    return 0 if report.passed else 3


def _cmd_to_poly(ns, alphabet, out) -> dict:
    poly = cp_to_polynomial(function_from_spec(ns.function, alphabet), ns.verify_bound, alphabet, ns.cap)
    return {"verdict": "polynomial", "polynomial": encode(poly)}


def _cmd_selftest(ns, alphabet, out) -> int:
    return run_selftest(out, seed=ns.seed, as_json=ns.json)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", default="abc", help="ordered letters (default: abc)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument("--json", action="store_true", help="structured output")
    common.add_argument("--unicode", action="store_true", help="render <*> as triangles/bullet")

    parser = argparse.ArgumentParser(prog="treealg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, text=None, three_letters=False):
        """Declare a subcommand. Without --json, `run` prints the payload's
        ``text`` field; a command without one always prints JSON."""
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler, text=text, three_letters=three_letters)
        return p

    p = command("parse", _cmd_parse, "validate a tree and print its canonical form", "tree")
    p.add_argument("tree")
    command("skeleton", _cmd_skeleton, "shape word of a tree", "skeleton").add_argument("tree")
    command("foliage", _cmd_foliage, "leaf word of a tree", "foliage").add_argument("tree")

    p = command("rebuild", _cmd_rebuild, "tree from its leaf word and shape word", "tree")
    p.add_argument("--foliage", required=True)
    p.add_argument("--skeleton", required=True)

    p = command("graft", _cmd_graft, "apply a grafting LETTER->TREE", "tree")
    p.add_argument("grafting", metavar="LETTER->TREE")
    p.add_argument("tree")

    p = command("substitute", _cmd_substitute, "apply a substitution LETTER=>WORD", "word")
    p.add_argument("substitution", metavar="LETTER=>WORD")
    p.add_argument("word")

    p = command("project", _cmd_project, "erase letters outside a preset", "word")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", action="store_true", help="keep shape characters only")
    group.add_argument("--phi", action="store_true", help="keep alphabet letters only")
    p.add_argument("word")

    p = command("enumerate", _cmd_enumerate, "all trees with at most N leaves", "trees")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_UNIVERSE_CAP)

    p = command("closure", _cmd_closure, "bounded congruence closure of seed pairs")
    p.add_argument("--pairs", required=True, metavar="FILE", help="one 'TREE TREE' pair per line")
    p.add_argument("--bound", type=int, default=6, help="universe leaf bound (default: 6)")
    p.add_argument("--cap", type=int, default=DEFAULT_UNIVERSE_CAP)

    p = command("synthesize", _cmd_synthesize, "polynomial from a generator table", "polynomial",
                three_letters=True)
    p.add_argument("--table", required=True, metavar="FILE", help="one 'LETTER TREE' line per letter")

    p = command("word-synthesize", _cmd_word_synthesize, "word polynomial from a word table", "polynomial",
                three_letters=True)
    p.add_argument("--table", required=True, metavar="FILE", help="one 'LETTER WORD' line per letter")

    p = command("check-cp", _cmd_check_cp, "congruence-preservation evidence report", three_letters=True)
    p.add_argument("--function", required=True,
                   help="identity | mirror | recolor:LETTER | const:TREE | poly:TREE | table:FILE")
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--cap", type=int, default=DEFAULT_UNIVERSE_CAP)

    p = command("to-poly", _cmd_to_poly, "polynomial representing a function, verified", "polynomial",
                three_letters=True)
    p.add_argument("--function", required=True)
    p.add_argument("--verify-bound", type=int, default=6)
    p.add_argument("--cap", type=int, default=DEFAULT_UNIVERSE_CAP)

    command("selftest", _cmd_selftest, "run the full verification suite (fixed reference alphabet abc)")

    return parser


def _render(value):
    """``value`` with the shape characters of each string in it drawn as triangles/bullet."""
    if isinstance(value, str):
        return value.translate(UNICODE_SHAPES)
    if isinstance(value, list):
        return [_render(item) for item in value]
    if isinstance(value, dict):
        return {key: _render(item) for key, item in value.items()}
    return value


def run(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse prints --help and usage errors to sys.stdout/sys.stderr
        with redirect_stdout(out), redirect_stderr(err):
            ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        alphabet = Alphabet.from_string(ns.alphabet)
    except ValueError as exc:
        err.write(f"usage error: {exc}\n")
        return 2
    if ns.three_letters and len(alphabet) < 3:
        err.write(f"usage error: {ns.command} needs an alphabet of at least three letters\n")
        return 2
    try:
        payload = ns.handler(ns, alphabet, out)
    except NotCP as exc:
        _report_error(exc, ns, out, err)
        return 3
    except TreeAlgebraError as exc:
        _report_error(exc, ns, out, err)
        return 1
    except ValueError as exc:
        err.write(f"usage error: {exc}\n")
        return 2
    if isinstance(payload, int):
        return payload
    if ns.unicode:
        payload = _render(payload)
    if ns.json or ns.text is None:
        out.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        text = payload[ns.text]
        out.writelines(line + "\n" for line in (text if isinstance(text, list) else [text]))
    return 0


def _report_error(exc: TreeAlgebraError, ns, out, err) -> None:
    if getattr(ns, "json", False):
        out.write(json.dumps(exc.payload(), separators=(",", ":")) + "\n")
    else:
        err.write(f"error: {type(exc).__name__}: {exc}\n")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
