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

from .congruence import bounded_closure
from .errors import MalformedTable, NotCP, TreeAlgebraError, TreeTooDeep, UnknownLetter
from .morphisms import Grafting, WordSubstitution, graft, substitute
from .polynomials import cp_evidence, cp_to_polynomial, function_from_spec, synthesize
from .trees import (
    Alphabet,
    DEFAULT_UNIVERSE_CAP,
    SHAPE_CHARS,
    UNICODE_SHAPES,
    encode,
    enumerate_universe,
    erase_letters,
    erase_shapes,
    foliage,
    leaf_count,
    parse_tree,
    read_lines,
    read_pairs,
    rebuild,
    skeleton,
)
from .words import synthesize_word

_NEEDS_THREE_LETTERS = {"synthesize", "word-synthesize", "check-cp", "to-poly"}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", default="abc", help="ordered letters (default: abc)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument("--json", action="store_true", help="structured output")
    common.add_argument("--unicode", action="store_true", help="render <*> as triangles/bullet")

    parser = argparse.ArgumentParser(prog="treealg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="validate a tree and print its canonical form")
    p.add_argument("tree")

    p = sub.add_parser("skeleton", parents=[common], help="shape word of a tree")
    p.add_argument("tree")

    p = sub.add_parser("foliage", parents=[common], help="leaf word of a tree")
    p.add_argument("tree")

    p = sub.add_parser("rebuild", parents=[common], help="tree from its leaf word and shape word")
    p.add_argument("--foliage", required=True)
    p.add_argument("--skeleton", required=True)

    p = sub.add_parser("graft", parents=[common], help="apply a grafting LETTER->TREE")
    p.add_argument("grafting", metavar="LETTER->TREE")
    p.add_argument("tree")

    p = sub.add_parser("substitute", parents=[common], help="apply a substitution LETTER=>WORD")
    p.add_argument("substitution", metavar="LETTER=>WORD")
    p.add_argument("word")

    p = sub.add_parser("project", parents=[common], help="erase letters outside a preset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", action="store_true", help="keep shape characters only")
    group.add_argument("--phi", action="store_true", help="keep alphabet letters only")
    p.add_argument("word")

    p = sub.add_parser("enumerate", parents=[common], help="all trees with at most N leaves")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_UNIVERSE_CAP)

    p = sub.add_parser("closure", parents=[common], help="bounded congruence closure of seed pairs")
    p.add_argument("--pairs", required=True, metavar="FILE", help="one 'TREE TREE' pair per line")
    p.add_argument("--bound", type=int, default=6, help="universe leaf bound (default: 6)")
    p.add_argument("--cap", type=int, default=DEFAULT_UNIVERSE_CAP)

    p = sub.add_parser("synthesize", parents=[common], help="polynomial from a generator table")
    p.add_argument("--table", required=True, metavar="FILE", help="one 'LETTER TREE' line per letter")

    p = sub.add_parser("word-synthesize", parents=[common], help="word polynomial from a word table")
    p.add_argument("--table", required=True, metavar="FILE", help="one 'LETTER WORD' line per letter")

    p = sub.add_parser("check-cp", parents=[common], help="congruence-preservation evidence report")
    p.add_argument("--function", required=True,
                   help="identity | mirror | recolor:LETTER | const:TREE | poly:TREE | table:FILE")
    p.add_argument("--bound", type=int, default=4)

    p = sub.add_parser("to-poly", parents=[common], help="polynomial representing a function, verified")
    p.add_argument("--function", required=True)
    p.add_argument("--verify-bound", type=int, default=6)

    sub.add_parser("selftest", parents=[common],
                   help="run the full verification suite (fixed reference alphabet abc)")

    return parser


def _render(text: str, ns) -> str:
    return text.translate(UNICODE_SHAPES) if ns.unicode else text


def _emit(ns, out, text: str, payload: dict) -> None:
    if ns.json:
        out.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        out.write(text + "\n")


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


def _read_table(path: str, alphabet: Alphabet, parse_value):
    table = {}
    for number, line in read_lines(path):
        fields = line.split()
        if len(fields) != 2 or len(fields[0]) != 1:
            raise MalformedTable(f"{path}:{number}: expected 'LETTER VALUE'")
        letter, value = fields
        if letter in table:
            raise MalformedTable(f"{path}:{number}: duplicate entry for {letter!r}")
        table[letter] = parse_value(value)
    return table


def _cmd_parse(ns, alphabet, out) -> int:
    tree = parse_tree(ns.tree, alphabet)
    text = _render(encode(tree), ns)
    _emit(ns, out, text, {
        "tree": text,
        "leaves": leaf_count(tree),
        "skeleton": _render(skeleton(tree), ns),
        "foliage": foliage(tree),
    })
    return 0


def _cmd_skeleton(ns, alphabet, out) -> int:
    word = _render(skeleton(parse_tree(ns.tree, alphabet)), ns)
    _emit(ns, out, word, {"skeleton": word})
    return 0


def _cmd_foliage(ns, alphabet, out) -> int:
    word = foliage(parse_tree(ns.tree, alphabet))
    _emit(ns, out, word, {"foliage": word})
    return 0


def _cmd_rebuild(ns, alphabet, out) -> int:
    tree = rebuild(ns.foliage, ns.skeleton, alphabet)
    text = _render(encode(tree), ns)
    _emit(ns, out, text, {"tree": text})
    return 0


def _cmd_graft(ns, alphabet, out) -> int:
    g = _parse_grafting(ns.grafting, alphabet)
    tree = graft(g, parse_tree(ns.tree, alphabet))
    text = _render(encode(tree), ns)
    _emit(ns, out, text, {"tree": text})
    return 0


def _cmd_substitute(ns, alphabet, out) -> int:
    sub = _parse_substitution(ns.substitution, alphabet)
    for ch in ns.word:
        if ch not in alphabet:
            raise UnknownLetter(ch, "input word")
    result = substitute(sub, ns.word)
    _emit(ns, out, result, {"word": result})
    return 0


def _cmd_project(ns, alphabet, out) -> int:
    for ch in ns.word:
        if ch not in alphabet and ch not in SHAPE_CHARS:
            raise UnknownLetter(ch, "input word")
    # Input holds only letters and shape characters, so erasing one kind keeps the other.
    word = _render(erase_letters(ns.word), ns) if ns.sigma else erase_shapes(ns.word)
    _emit(ns, out, word, {"word": word})
    return 0


def _cmd_enumerate(ns, alphabet, out) -> int:
    trees = enumerate_universe(ns.bound, alphabet, ns.cap)
    rendered = [_render(encode(t), ns) for t in trees]
    if ns.json:
        out.write(json.dumps({"count": len(rendered), "trees": rendered}, separators=(",", ":")) + "\n")
    else:
        for text in rendered:
            out.write(text + "\n")
    return 0


def _cmd_closure(ns, alphabet, out) -> int:
    pairs = read_pairs(ns.pairs, alphabet)
    partition = bounded_closure(pairs, ns.bound, alphabet, ns.cap)
    payload = {
        "universe_size": partition.universe_size,
        "classes": [[_render(encode(t), ns) for t in cls] for cls in partition.classes()],
    }
    out.write(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


def _cmd_synthesize(ns, alphabet, out) -> int:
    table = _read_table(ns.table, alphabet, lambda text: parse_tree(text, alphabet))
    poly = synthesize(table, alphabet)
    text = _render(encode(poly), ns)
    _emit(ns, out, text, {"polynomial": text})
    return 0


def _cmd_word_synthesize(ns, alphabet, out) -> int:
    table = _read_table(ns.table, alphabet, lambda text: text)
    poly = synthesize_word(table, alphabet)
    _emit(ns, out, poly, {"polynomial": poly})
    return 0


def _cmd_check_cp(ns, alphabet, out) -> int:
    func = function_from_spec(ns.function, alphabet)
    report = cp_evidence(func, ns.bound, alphabet, ns.seed)
    out.write(json.dumps(report.as_json(), separators=(",", ":")) + "\n")
    return 0 if report.passed else 3


def _cmd_to_poly(ns, alphabet, out) -> int:
    func = function_from_spec(ns.function, alphabet)
    poly = cp_to_polynomial(func, ns.verify_bound, alphabet)
    text = _render(encode(poly), ns)
    _emit(ns, out, text, {"verdict": "polynomial", "polynomial": text})
    return 0


def _cmd_selftest(ns, alphabet, out) -> int:
    from .selftest import run_selftest

    return run_selftest(out, seed=ns.seed, as_json=ns.json)


_HANDLERS = {
    "parse": _cmd_parse,
    "skeleton": _cmd_skeleton,
    "foliage": _cmd_foliage,
    "rebuild": _cmd_rebuild,
    "graft": _cmd_graft,
    "substitute": _cmd_substitute,
    "project": _cmd_project,
    "enumerate": _cmd_enumerate,
    "closure": _cmd_closure,
    "synthesize": _cmd_synthesize,
    "word-synthesize": _cmd_word_synthesize,
    "check-cp": _cmd_check_cp,
    "to-poly": _cmd_to_poly,
    "selftest": _cmd_selftest,
}


def run(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        alphabet = Alphabet.from_string(ns.alphabet)
    except ValueError as exc:
        err.write(f"usage error: {exc}\n")
        return 2
    if ns.command in _NEEDS_THREE_LETTERS and len(alphabet) < 3:
        err.write(f"usage error: {ns.command} needs an alphabet of at least three letters\n")
        return 2
    try:
        return _HANDLERS[ns.command](ns, alphabet, out)
    except NotCP as exc:
        _report_error(exc, ns, out, err)
        return 3
    except TreeAlgebraError as exc:
        _report_error(exc, ns, out, err)
        return 1
    except RecursionError:
        _report_error(TreeTooDeep(ns.command), ns, out, err)
        return 1
    except ValueError as exc:
        err.write(f"usage error: {exc}\n")
        return 2


def _report_error(exc: TreeAlgebraError, ns, out, err) -> None:
    if getattr(ns, "json", False):
        out.write(json.dumps(exc.payload(), separators=(",", ":")) + "\n")
    else:
        err.write(f"error: {type(exc).__name__}: {exc}\n")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
