"""Seeded argv fuzzing of the command line.

Command lines are drawn per verb from its table of arguments
(`cli._VERBS`): every flag, the shapes only argparse takes (abbreviated
flags, --flag=value, "--", a repeated flag, -h), awkward values and the
positional before, after or between the flags, missing or doubled.  Each
must parse directly as argparse parses it, or fall back; exit in 0-5
without a traceback; and read every flag it was given unless it is
refused.
"""

import argparse
import io
import os
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout

from large_atlas import cli

SEED = 20260419
DRAWS_PER_VERB = 48

# small hosts only (n <= 8): simple and canonical, not canonical, not
# simple, not a prime power, malformed, without a field
HOSTS = ("PSL(2,7)", "PSL(3,4)", "PSL(4,2)", "PSL(2,8)", "PSU(4,3)", "PSU(3,5)",
         "PSp(4,4)", "PSp(6,2)", "POmega+(8,2)", "POmega(7,3)", "PSL(2,4)",
         "PSp(4,2)", "PSL(2,6)", "PSL(2,7", "Alt(7)")
NUMBERS = ("2", "60", "0", "-5", "+5", "٣", " 5 ", "", "5 0")
WORDS = ("C1", "C2", " C2 ", "c8", "A", "S", "x", "GL(1,7) wr S2", "1", "iv", "",
         "-5", "-C2", "two words")
# values by dest, where the generic words would never name anything
POOLS = {
    "group": HOSTS,
    "case": ("psl-c6", "psp-c7", "pso-c6", "no-such-case", ""),
    "family": ("psl-c6", "psp-c", "zzz", ""),
    "out_dir": ("out", "a b"),
}

# command lines that answer (exit 0 or 1) and between them give every flag
ANSWERING = (
    ["order", "PSL(4,2)"],
    ["out", "PSL(2,7)"],
    ["subgroups", "PSp(4,4)", "--exceptional", "sp4", "--item", "2", "--class", "X",
     "--type", "D8", "--json"],
    ["check", "PSL(4,5)", "--class", "C2", "--type", "GL(1,5) wr S4", "--o", "2"],
    ["check", "POmega+(8,2)", "--exceptional", "o8", "--item", "viii"],
    ["check", "PSL(2,7)", "--h0-order", "21"],
    ["explain", "PSp(4,4)", "--exceptional", "sp4", "--item", "i", "--class", "x",
     "--type", "[q^4]:(q-1)^2", "--json"],
    ["sweep", "psp-c7", "--json"],
    ["sweep", "--list", "--json"],
    ["reproduce", "psp-c7", "--out-dir", "out"],
    ["reproduce", "--family", "psl-c6"],
    ["reproduce", "--all"],
    ["tables", "A0", "--json"],
)


def _arguments(verb):
    """[(flags, add_argument keywords)] of the verb."""
    return cli._VERBS[verb][2]


def _dest(flags, kw):
    return kw.get("dest") or flags[-1].lstrip("-").replace("-", "_")


def _values(flags, kw):
    """The values drawn for one argument: its choices and near misses, its
    numbers, or its words."""
    if "choices" in kw:
        return (*kw["choices"], "sp5", "a1", "")
    if kw.get("type") is int:
        return NUMBERS
    return POOLS.get(_dest(flags, kw), WORDS)


def _draw(rng, verb):
    """One command line of `verb`."""
    chunks, positionals = [], []
    for flags, kw in _arguments(verb):
        if not flags[0].startswith("-"):
            value = rng.choice(_values(flags, kw))
            positionals += [value] * rng.choice((1, 1, 1, 1, 0, 2))
        elif rng.random() < 0.5:
            chunk = [rng.choice(flags)]
            if kw.get("action") != "store_true":
                chunk.append(rng.choice(_values(flags, kw)))
            chunks.append(chunk)
    rng.shuffle(chunks)
    for value in positionals:  # before, after or between the flags
        chunks.insert(rng.randrange(len(chunks) + 1), [value])
    mutate = rng.randrange(12)
    flagged = [c for c in chunks if c[0].startswith("--")]
    if mutate == 0 and flagged:  # an abbreviation
        c = rng.choice(flagged)
        c[0] = c[0][:rng.randrange(3, len(c[0]) + 1)]
    elif mutate == 1 and [c for c in flagged if len(c) == 2]:  # --flag=value
        c = rng.choice([c for c in flagged if len(c) == 2])
        c[:] = [c[0] + "=" + c[1]]
    elif mutate == 2:
        chunks.insert(rng.randrange(len(chunks) + 1), ["--"])
    elif mutate == 3 and flagged:  # a repeated flag
        chunks.append(list(rng.choice(flagged)))
    elif mutate == 4:
        chunks.insert(rng.randrange(len(chunks) + 1), [rng.choice(("-h", "--help"))])
    elif mutate == 5 and flagged:  # a flag without its value
        chunks.append(rng.choice(flagged)[:1])
    return [verb] + [word for c in chunks for word in c]


def _full_parse(argv):
    """vars() of the full parser's namespace, or None where it exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def _read_names(monkeypatch):
    """The list that every attribute name read from a namespace is appended
    to, from now on."""
    names = []
    get = object.__getattribute__

    def spy(self, name):
        names.append(name)
        return get(self, name)

    monkeypatch.setattr(argparse.Namespace, "__getattribute__", spy)
    return names


def _main(argv):
    """(exit code, stderr) of main(argv), with stdout dropped."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_fuzzed_command_lines_parse_alike_exit_cleanly_and_read_every_flag(
        monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # reproduce writes its reports here
    names = _read_names(monkeypatch)
    rng = random.Random(SEED)
    direct_count = 0
    answered = set()
    for verb in cli._VERBS:
        sub = argparse.ArgumentParser()
        for flags, kw in _arguments(verb):
            sub.add_argument(*flags, **kw)
        argvs = ([argv for argv in ANSWERING if argv[0] == verb]
                 + [_draw(rng, verb) for _ in range(DRAWS_PER_VERB)])
        for argv in argvs:
            want = _full_parse(argv)
            direct = cli._parse_plain(verb, argv[1:])
            if direct is not None:
                direct_count += 1
                assert vars(direct) == want, argv
            names.clear()
            code, err = _main(argv)
            assert code in range(6) and "Traceback" not in err, (argv, code, err)
            if want is None:  # argparse refused it or printed help
                continue
            given = {dest for dest, value in want.items()
                     if dest not in ("verb", "fn") and value != sub.get_default(dest)}
            # the handler's reads: those after main's own read of args.fn
            read = set(names[len(names) - names[::-1].index("fn"):])
            # a call that answers read every flag it was given; a flag it
            # did not read comes with a refusal (2-5)
            assert code not in (0, 1) or given <= read, (argv, code, given - read)
            if code in (0, 1):
                answered |= {(verb, dest) for dest in given}
    # the plain route is taken, and every flag of every verb was given to
    # some call that answered
    assert direct_count >= 60
    assert answered >= {(verb, _dest(flags, kw))
                        for verb in cli._VERBS for flags, kw in _arguments(verb)}


def _readme_command_lines():
    """argv of every `large-atlas ...` line of the README."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        return [shlex.split(line, comments=True)[1:] for line in fh
                if line.startswith("large-atlas ")]


def test_readme_examples_take_the_direct_route():
    lines = _readme_command_lines()
    assert len(lines) >= 8
    for argv in lines:
        direct = cli._parse_plain(argv[0], argv[1:])
        assert direct is not None, argv
        assert vars(direct) == _full_parse(argv), argv
