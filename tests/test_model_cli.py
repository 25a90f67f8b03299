import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import random_model

from fdprop.benchmarks import FILE_BENCHMARKS, get_benchmark, holed_chain_model, magic_model, queens_model
from fdprop.cli import main
from fdprop.linear import BinaryLinear, NaryLinear
from fdprop.model import (
    ModelError,
    SolverConfig,
    format_model,
    parse_model,
    solve_model,
)

TINY = """\
var x in 1..5
var y in 1..5
eq 1*x = 1*y + 1
label x y
"""


def test_parse_binary_model():
    m = parse_model(TINY)
    assert [vd.name for vd in m.vars] == ["x", "y"]
    assert m.constraints == [BinaryLinear(1, 0, 1, 1, 1)]
    assert m.label_order == [0, 1]


def test_parse_nary():
    m = parse_model("var x in 1..5\nvar y in 1..5\nlin -5 1*x 1*y = 0\nlabel x y\n")
    assert m.constraints == [NaryLinear(-5, ((1, 0), (1, 1)))]


def test_parse_set_domain_and_comments():
    m = parse_model("# heading\nvar x in {2,4,5}  # inline\nlabel x\n")
    assert m.vars[0].values == (2, 4, 5)


def test_parse_errors_carry_location():
    with pytest.raises(ModelError) as exc:
        parse_model("var x in 5..1\nlabel x\n")
    assert exc.value.line == 1

    with pytest.raises(ModelError):
        parse_model("var x in 1..3\nneq x ghost 0\nlabel x\n")
    with pytest.raises(ModelError):
        parse_model("var x in 1..3\nlin 0 0*x = 0\nlabel x\n")
    with pytest.raises(ModelError):
        parse_model("var x in 1..3\nvar x in 1..3\nlabel x\n")
    with pytest.raises(ModelError):
        parse_model("var x in 1..3\n")  # label line is required
    with pytest.raises(ModelError):
        parse_model("frob x\n")
    with pytest.raises(ModelError) as exc:
        parse_model("var x in 1..3\nlabel x\n  label x\n")
    assert str(exc.value) == "line 3, column 3: duplicate label line"
    with pytest.raises(ModelError) as exc:
        parse_model("var x in 1..3\nvar y in 1..3\nlabel x  y x\n")
    assert str(exc.value) == "line 3, column 12: variable 'x' labeled twice"


# (model text, the error's message) for every error the parser raises,
# with tokens spaced unevenly so that each column is the token's own
PARSE_ERRORS = [
    ('var x 1..3\nlabel x\n',
     'line 1, column 1: expected: var <name> in <domain>'),
    ('  var x in 1..3\n var x  in 2..4\nlabel x\n',
     "line 2, column 6: duplicate declaration of 'x'"),
    ('var x in {1,a,3}\nlabel x\n',
     "line 1, column 10: expected an integer, got 'a'"),
    ('var x in {,}\nlabel x\n',
     'line 1, column 10: empty value set'),
    ('var x in 1..b\nlabel x\n',
     "line 1, column 10: expected an integer, got 'b'"),
    ('var  x in  7\nlabel x\n',
     "line 1, column 12: bad domain spec '7'"),
    ('var x in 5..1 # reversed\nlabel x\n',
     'line 1, column 10: empty interval 5..1'),
    ('var x in 1..3\nvar y in 1..3\nlin 0 1*x = 1\nlabel x\n',
     'line 3, column 1: expected: lin <c0> <a>*<name> ... = 0'),
    ('var x in 1..3\nvar y in 1..3\nlin z 1*x = 0\nlabel x\n',
     "line 3, column 5: expected an integer, got 'z'"),
    ('var x in 1..3\nvar y in 1..3\nlin 0  1*x 2y = 0\nlabel x\n',
     "line 3, column 12: expected <coef>*<name>, got '2y'"),
    ('var x in 1..3\nvar y in 1..3\nlin 0 1*x q*y = 0\nlabel x\n',
     "line 3, column 11: expected an integer, got 'q'"),
    ('var x in 1..3\nvar y in 1..3\nlin 0 1*x 0*y = 0\nlabel x\n',
     'line 3, column 11: zero coefficient'),
    ('var x in 1..3\nvar y in 1..3\nlin 0 1*x 1*w = 0\nlabel x\n',
     "line 3, column 11: undeclared variable 'w'"),
    ('var x in 1..3\nvar y in 1..3\neq 1*x = 1*y 1\nlabel x\n',
     'line 3, column 1: expected: eq <a>*<x> = <b>*<y> + <c>'),
    ('var x in 1..3\nvar y in 1..3\neq 1*x = 1*y + c\nlabel x\n',
     "line 3, column 16: expected an integer, got 'c'"),
    ('var x in 1..3\nvar y in 1..3\neq   x = 1*y + 1\nlabel x\n',
     "line 3, column 6: expected <coef>*<name>, got 'x'"),
    ('var x in 1..3\nvar y in 1..3\neq 1*x = 2*  + 1\nlabel x\n',
     "line 3, column 10: expected <coef>*<name>, got '2*'"),
    ('var x in 1..3\nvar y in 1..3\neq 0*x = 1*y + 1\nlabel x\n',
     'line 3, column 4: eq coefficients must be positive'),
    ('var x in 1..3\nvar y in 1..3\neq 1*x = 1*v + 1\nlabel x\n',
     "line 3, column 10: undeclared variable 'v'"),
    ('var x in 1..3\nvar y in 1..3\nneq x y\nlabel x\n',
     'line 3, column 1: expected: neq <x> <y> <c>'),
    ('var x in 1..3\nvar y in 1..3\nneq x y k\nlabel x\n',
     "line 3, column 9: expected an integer, got 'k'"),
    ('var x in 1..3\nvar y in 1..3\nneq x x1 0\nlabel x\n',
     "line 3, column 7: undeclared variable 'x1'"),
    ('var x in 1..3\nvar y in 1..3\nalldistinct\nlabel x\n',
     'line 3, column 1: alldistinct needs at least one variable'),
    ('var x in 1..3\nvar y in 1..3\nalldistinct x y  yy\nlabel x\n',
     "line 3, column 18: undeclared variable 'yy'"),
    ('var x in 1..3\nvar y in 1..3\nlabel\n',
     'line 3, column 1: label needs at least one variable'),
    ('var x in 1..3\nvar y in 1..3\nlabel x y\nlabel x\n',
     'line 4, column 1: duplicate label line'),
    ('var x in 1..3\nvar y in 1..3\nlabel x x\n',
     "line 3, column 9: variable 'x' labeled twice"),
    ('var x in 1..3\nvar y in 1..3\nlabel x z\n',
     "line 3, column 9: undeclared variable 'z'"),
    ('var x in 1..3\nvar y in 1..3\n  frob x\n',
     "line 3, column 3: unknown directive 'frob'"),
    ('var x in 1..3\nvar y in 1..3\n',
     'missing required label line'),
    ('var x in 1..3\nvar xx in 1..3\nlabel xx x xx\n',
     "line 3, column 12: variable 'xx' labeled twice"),
    ('var x in 1..3\nvar xx in 1..3\nneq xx x xx\nlabel x\n',
     "line 3, column 10: expected an integer, got 'xx'"),
    ("var x\tin 1..3\nlabel\tx \t x\n",
     "line 2, column 11: variable 'x' labeled twice"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS,
                         ids=[f"error{i}" for i in range(len(PARSE_ERRORS))])
def test_parse_error_messages_name_the_token_column(text, message):
    with pytest.raises(ModelError) as exc:
        parse_model(text)
    assert str(exc.value) == message


def test_round_trip_all_shipped_and_generated_models():
    models = [get_benchmark(n) for n in FILE_BENCHMARKS]
    models += [queens_model(5), magic_model(3), holed_chain_model(2)]
    for m in models:
        text = format_model(m)
        again = parse_model(text, m.name)
        assert format_model(again) == text
        assert again.vars == m.vars
        assert again.constraints == list(m.constraints)
        assert again.label_order == list(m.label_order)


def test_round_trip_random_models():
    rng = random.Random(0x5EED)
    for _ in range(500):
        m = random_model(rng)
        assert parse_model(format_model(m), m.name) == m


FUZZ_WORDS = ("var", "in", "lin", "eq", "neq", "alldistinct", "label",
              "=", "+", "0", "#", "x", "y", "z", "", "*", "..", "{", "}", ",")

# Directive shapes; each "?" becomes a random token, so most lines get
# past the directive check and reach the field parsers.
FUZZ_SHAPES = ("var ? in ?", "lin ? ? ? = 0", "eq ? = ? + ?", "neq ? ? ?",
               "alldistinct ? ?", "label ? ?", "? ? ? ?")


def _fuzz_token(rng: random.Random) -> str:
    """A model keyword or name, a ``*`` term, a range, a set, or a
    malformed mix of their pieces."""
    pick = rng.random()
    num = lambda: str(rng.choice((-2, 0, 1, 3, 10 ** 7, -(10 ** 19))))
    if pick < 0.35:
        return rng.choice(FUZZ_WORDS)
    if pick < 0.5:
        return f"{num()}*{rng.choice('xyz')}"
    if pick < 0.65:
        return f"{num()}..{num()}"
    if pick < 0.8:
        return "{" + ",".join(num() for _ in range(rng.randint(0, 3))) + "}"
    return "".join(rng.choice(FUZZ_WORDS) for _ in range(rng.randint(1, 4)))


def _fuzz_line(rng: random.Random) -> str:
    shape = rng.choice(FUZZ_SHAPES).split()
    if rng.random() < 0.2:  # drop or repeat a field
        i = rng.randrange(len(shape))
        shape[i:i + 1] = rng.choice(([], ["?", "?"]))
    return " ".join(_fuzz_token(rng) if w == "?" else w for w in shape)


def test_parser_fuzz_raises_only_model_error():
    """Random token soup either parses or raises ModelError, never
    another exception."""
    rng = random.Random(0xF022)
    prelude = "var x in 1..3\nvar y in {1,3}\n"
    for _ in range(5000):
        text = "\n".join(_fuzz_line(rng) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.5:
            text = prelude + text  # let constraint lines resolve names
        try:
            parse_model(text)
        except ModelError:
            pass


def test_solve_model_tiny():
    r = solve_model(parse_model(TINY), SolverConfig(mode="all"))
    assert set(r.solutions) == {(2, 1), (3, 2), (4, 3), (5, 4)}


def test_cli_solve_stats_line(tmp_path, capsys):
    path = tmp_path / "tiny.model"
    path.write_text(TINY)
    stats_path = tmp_path / "stats.json"
    code = main(["solve", str(path), "--all", "--stats-json", str(stats_path)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "x=2 y=1"
    assert out[-1].startswith("stats: backtracks=0 activations=")
    payload = json.loads(stats_path.read_text())
    assert set(payload) == {"backtracks", "activations", "solutions", "time_ms",
                            "agents"}
    assert payload["solutions"] == 4


def test_cli_stats_json_reports_agents(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    assert main(["solve", "bench:queens(25)", "--stats-json", str(stats_path)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    payload = json.loads(stats_path.read_text())
    assert payload["agents"] == 25
    assert last == ("stats: backtracks={backtracks} activations={activations} "
                    "solutions={solutions} time_ms={time_ms}".format(**payload))


@pytest.mark.parametrize("limit", [["--max-backtracks", "10"], ["--time-limit", "0.05"]])
def test_cli_solve_limit_exits_5(limit, capsys):
    started = time.perf_counter()
    assert main(["solve", "bench:queens(25)", *limit]) == 5
    assert time.perf_counter() - started < 5  # the full solve takes longer
    captured = capsys.readouterr()
    assert captured.out.startswith("stats: backtracks=")
    assert "solutions=0" in captured.out
    assert captured.err.startswith("error: search limit reached (")


def test_cli_solve_limit_prints_solutions_found_so_far(capsys):
    # queens(6) has 4 solutions and more than 10 failed attempts
    assert main(["solve", "bench:queens(6)", "--all", "--max-backtracks", "10"]) == 5
    out = capsys.readouterr().out.strip().splitlines()
    stats = out.pop()
    assert stats.startswith("stats: backtracks=11 ")
    assert 0 < len(out) < 4 and f"solutions={len(out)} " in stats


def test_cli_limit_not_reached_exits_0(capsys):
    assert main(["solve", "bench:queens(8)", "--max-backtracks", "24",
                 "--time-limit", "60"]) == 0
    assert "backtracks=24 " in capsys.readouterr().out


def test_cli_verify_limit_exits_5(capsys):
    assert main(["verify", "bench:queens(6)", "--max-backtracks", "0"]) == 5
    captured = capsys.readouterr()
    assert "solutions agree" not in captured.out
    assert captured.err.startswith("error: search limit reached (")


# Two equations that bounds propagation narrows by one value per round:
# about 300,000 activations before the domains wipe out.
CYCLE_AT_ROOT = """\
var x in 1..300000
var y in 1..300000
eq 1*x = 1*y + 1
eq 1*y = 1*x + 1
label x y
"""

# The same cycle, x = y + 1 - b and y = x + 1 - b, opens only once the
# first labeling choice binds b to 0.
CYCLE_AFTER_CHOICE = """\
var b in 0..1
var x in 1..300000
var y in 1..300000
lin -1 1*x -1*y 1*b = 0
lin -1 1*y -1*x 1*b = 0
label b x y
"""


@pytest.mark.parametrize("level", ["ic", "ac"])
@pytest.mark.parametrize("command, text", [
    ("solve", CYCLE_AT_ROOT),
    ("solve", CYCLE_AFTER_CHOICE),
    ("verify", CYCLE_AT_ROOT),
], ids=["solve-root", "solve-search", "verify-root"])
def test_time_limit_cuts_a_long_fixpoint_short(command, text, level, tmp_path, capsys):
    path = tmp_path / "cycle.fd"
    path.write_text(text)
    started = time.perf_counter()
    assert main([command, str(path), "--level", level, "--time-limit", "0.1"]) == 5
    assert time.perf_counter() - started < 2
    captured = capsys.readouterr()
    assert captured.err == "error: search limit reached (time limit)\n"
    if command == "solve":
        # the limit struck inside the fixpoint, not after it failed
        assert captured.out.startswith("stats: backtracks=0 ")
    else:
        assert "solutions agree" not in captured.out


@pytest.mark.parametrize("level", ["ic", "ac"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_time_limit_cuts_posting_short(command, level, tmp_path, capsys):
    """The cycle over 1..1000000.  At ac each pair agent revises both
    sides at posting, a million values a side; the deadline is set
    before posting and each half reads it first, so the limit strikes
    while the model is posted: at most the two entry activations run, where
    an unbounded build takes over half a second and then hands the root
    fixpoint hundreds of records.  At ic posting only narrows the
    bounds, and the limit strikes in the root fixpoint."""
    path = tmp_path / "cycle.fd"
    path.write_text(CYCLE_AT_ROOT.replace("300000", "1000000"))
    started = time.perf_counter()
    assert main([command, str(path), "--level", level, "--time-limit", "0.05"]) == 5
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.err == "error: search limit reached (time limit)\n"
    if command == "verify":
        assert "solutions agree" not in captured.out
    else:
        activations = int(captured.out.split()[2].removeprefix("activations="))
        assert activations <= 2 if level == "ac" else activations > 256


def test_time_limit_cuts_weak_ac_posting_short(capsys):
    """magic(70) under wac: each of the 4,900 outof agents runs its
    filter over the live elements at generation, seconds of posting in
    all, and the deadline is read before each element is posted."""
    started = time.perf_counter()
    assert main(["solve", "bench:magic(70)", "--level", "ic", "--alldistinct", "wac",
                 "--time-limit", "0.2"]) == 5
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == "error: search limit reached (time limit)\n"


# One all_distinct over 1,000 variables in 1..1000.  At fc nothing
# narrows, so the weak-arc report compares 1,000 domains of 1,000
# values pairwise: 12 s unbounded, and no other predicate is checked.
WIDE_ALLDISTINCT = ("".join(f"var x{i} in 1..1000\n" for i in range(1000))
                    + "alldistinct " + " ".join(f"x{i}" for i in range(1000))
                    + "\nlabel x0\n")


@pytest.mark.parametrize("model, level", [("bench:magic(40)", "ic"), (None, "fc")],
                         ids=["magic-ic", "wide-alldistinct-fc"])
def test_time_limit_cuts_verify_root_report_short(model, level, tmp_path):
    """Under wac, root propagation ends inside the limit, and the root
    report then lists every domain and checks each predicate.  On
    magic(40) at ic that ran for more than 20 s unbounded, and on
    ``WIDE_ALLDISTINCT`` the weak-arc check alone runs for seconds.  The
    report reads the deadline per constraint and per row of the
    weak-arc check, so verify ends like a cut solve: exit 5, the limit
    named, and neither a root line nor an agree line."""
    if model is None:
        model = tmp_path / "wide.model"
        model.write_text(WIDE_ALLDISTINCT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "fdprop.cli", "verify", str(model),
                        "--level", level, "--alldistinct", "wac", "--time-limit", "0.5"],
                       env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - started < 3
    assert r.returncode == 5, r.stderr
    assert r.stderr == "error: search limit reached (time limit)\n"
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [
    ["solve", "bench:queens(4)", "--max-backtracks", "-1"],
    ["solve", "bench:queens(4)", "--time-limit", "-0.5"],
    ["verify", "bench:queens(4)", "--time-limit", "nan"],
    ["bench", "--workers", "0"],
    ["bench", "--workers", "-3"],
    ["verify", "bench:queens(4)", "--cap", "-5"],
    ["solve", "bench:queens(4)", "--no-coalesce"],  # retired: bound posts merge in the queue
])
def test_cli_rejects_bad_limits_and_workers(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    retired = "--no-coalesce" in argv
    assert ("unrecognized arguments" if retired else "must be at least") \
        in capsys.readouterr().err


@pytest.mark.parametrize("option", ["level", "alldistinct"])
def test_unknown_level_or_strategy_is_rejected(option, capsys):
    with pytest.raises(ValueError):
        SolverConfig(**{option: "bogus"})
    with pytest.raises(SystemExit) as exc:
        main(["solve", "bench:queens(4)", f"--{option}", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "[--level {fc,ic,ac}]" in err
    assert "[--alldistinct {naive,linear,wac}]" in err


def test_cli_bench_caps_workers_at_corpus_size(monkeypatch, capsys):
    import fdprop.cli as cli
    from fdprop.benchmarks import BENCH_CORPUS

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, specs):
            return map(fn, specs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_bench_one", lambda spec: (spec[0], 0, 1, 0))
    assert main(["bench", "--workers", "64"]) == 0
    assert main(["bench", "--workers", "3"]) == 0
    assert main(["bench", "--workers", "1"]) == 0
    assert pools == [len(BENCH_CORPUS), 3]  # one worker runs in process
    assert capsys.readouterr().out.count("solutions=1") == 3 * len(BENCH_CORPUS)


def test_cli_solve_bench_reference(capsys):
    code = main(["solve", "bench:queens(6)", "--all"])
    out = capsys.readouterr().out
    assert code == 0
    assert "solutions=4" in out


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("var x in 5..1\nlabel x\n")
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()

    unsat = tmp_path / "unsat.model"
    unsat.write_text("var x in 1..2\nvar y in 1..2\nvar z in 1..2\n"
                     "alldistinct x y z\nlabel x y z\n")
    assert main(["solve", str(unsat)]) == 0
    capsys.readouterr()
    assert main(["solve", str(unsat), "--expect-sat"]) == 3
    capsys.readouterr()


def test_cli_trace_format(tmp_path, capsys):
    path = tmp_path / "tiny.model"
    path.write_text(TINY)
    code = main(["solve", str(path), "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [l for l in captured.err.splitlines() if l]
    assert lines
    for line in lines:
        seq, agent, event, rule, outcome = line.split("\t")
        int(seq)
        int(rule)
        assert outcome in ("ok", "fail", "end")


def test_cli_verify_reports_agreement(tmp_path, capsys):
    path = tmp_path / "tiny.model"
    path.write_text(TINY)
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "solutions agree: yes" in out
    assert "interval consistent at root: yes" in out
    assert "arc consistent at root: yes" in out


@pytest.mark.parametrize("argv", [
    ["verify", "bench:holed_chain(3)"],
    ["verify", "bench:queens(5)", "--level", "ic"],
    ["verify", "bench:queens(6)", "--max-backtracks", "0"],
])
def test_cli_verify_builds_the_model_once(argv, monkeypatch, capsys):
    """The fixpoint report and the labeling share one root fixpoint."""
    import fdprop.cli
    import fdprop.model

    calls = []
    real_build = fdprop.model.build

    def counting_build(*args, **kwargs):
        calls.append(args[0].name)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(fdprop.model, "build", counting_build)
    monkeypatch.setattr(fdprop.cli, "build", counting_build)
    main(argv)
    assert len(calls) == 1
    assert "consistent at root" in capsys.readouterr().out


def test_cli_verify_unsat_model(tmp_path, capsys):
    path = tmp_path / "unsat.model"
    path.write_text("var x in 1..2\nvar y in 1..2\nvar z in 1..2\n"
                    "alldistinct x y z\nlabel x y z\n")
    code = main(["verify", str(path), "--alldistinct", "wac"])
    out = capsys.readouterr().out
    assert code == 0
    assert "solutions agree: yes (engine 0, oracle 0)" in out


def test_cli_verify_deep_model(tmp_path, capsys):
    """The oracle's enumeration depth is the variable count: 1201
    variables must not hit the interpreter's recursion limit."""
    path = tmp_path / "deep.model"
    path.write_text("".join(f"var x{i} in 1..1\n" for i in range(1200))
                    + "var y in 1..2\nlabel y\n")
    assert main(["verify", str(path)]) == 0
    assert "solutions agree: yes (engine 2, oracle 2)" in capsys.readouterr().out


def test_cli_verify_refuses_before_solving(capsys):
    started = time.perf_counter()
    assert main(["verify", "bench:queens(25)"]) == 2
    assert time.perf_counter() - started < 10  # the full solve takes minutes
    assert "oracle refused" in capsys.readouterr().out


def test_cli_verify_refuses_a_wide_model_without_a_traceback(tmp_path):
    """1,500 variables in 1..1000: an assignment count of 4,500 digits,
    more than Python will format, is refused by its cap alone."""
    path = tmp_path / "wide.model"
    path.write_text("".join(f"var x{i} in 1..1000\n" for i in range(1500)) + "label x0\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-m", "fdprop.cli", "verify", str(path)],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 2, r.stderr
    assert "oracle refused: more than 10000000 assignments" in r.stdout
    assert "Traceback" not in r.stderr, r.stderr


def test_cli_unwritable_stats_json_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["solve", "bench:queens(6)", "--stats-json", str(target)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write ")
    assert out == ""  # refused before the search: no solution or stats line
    assert not target.exists()


def test_cli_non_utf8_model_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.model"
    path.write_bytes("# caf\u00e9\nvar x in 1..3\nlabel x\n".encode("latin-1"))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ")


def test_cli_unknown_benchmark(capsys):
    assert main(["solve", "bench:nope"]) == 2


@pytest.mark.parametrize("ref", ["bench:queens(0)", "bench:magic(1)", "bench:holed_chain(0)"])
def test_cli_benchmark_size_out_of_range_exits_2(ref, capsys):
    assert main(["solve", ref]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "needs" in err


def test_domain_width_cap_is_a_model_error():
    with pytest.raises(ModelError):
        parse_model("var x in 0..2000000\nlabel x\n")


def test_posting_capacity_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.model"
    path.write_text("var x in 0..1000\nvar y in 0..1000\n"
                    "lin 0 9000000000000000000*x 1*y = 0\nlabel x y\n")
    assert main(["solve", str(path)]) == 2


# x - y = -1 at the top of int64: each side fits in 64 bits, yet solving
# for y computes 2^63
EDGE_EQ = ("var x in 9223372036853727232..9223372036854775807\n"
           "var y in 9223372036853727231..9223372036854775806\n"
           "eq 1*x = 1*y + -1\nlabel x y\n")


def test_binary_posting_capacity_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.model"
    for text in ("var x in 0..2\nvar y in 0..2\n"
                 "eq 9000000000000000000*x = 1*y + 0\nlabel x y\n", EDGE_EQ):
        path.write_text(text)
        assert main(["solve", str(path), "--level", "fc", "--all"]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused at posting, before any search
        assert err.startswith("error: binary constraint exceeds 64-bit budget")


def test_same_variable_equality_without_integer_solution_fails_at_root():
    # 3x = x + 1 reduces to 2x = 1: posting fails, nothing is labeled
    m = parse_model("var x in 0..5\neq 3*x = 1*x + 1\nlabel x\n")
    r = solve_model(m, SolverConfig(mode="all"))
    assert r.root_failed and r.solutions == [] and r.backtracks == 0


def test_same_variable_equality_skips_the_binary_budget():
    # (9e18 - 1)*x = 0 is not a pair of variables: no binary budget applies
    m = parse_model("var x in 0..2\neq 9000000000000000000*x = 1*x + 0\nlabel x\n")
    assert solve_model(m, SolverConfig(mode="all")).solutions == [(0,)]


def test_underdetermined_label_list_exits_2(tmp_path, capsys):
    # y is never labeled and nothing binds it: a model error
    path = tmp_path / "under.model"
    path.write_text("var x in 1..3\nvar y in 1..3\nneq x y 0\nlabel x\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'y'" in err


# models whose solve exits 2 after --stats-json was checked: a posting
# that overflows the 64-bit budget, and a label line that leaves y unbound
STATS_ERROR_MODELS = [
    "var x in 0..1\nvar y in 0..1\nlin 0 9223372036854775807*x -1*y = 0\nlabel x y\n",
    "var x in 1..3\nvar y in 1..3\nneq x y 0\nlabel x\n",
]


@pytest.mark.parametrize("text", STATS_ERROR_MODELS, ids=["capacity", "unbound"])
def test_cli_error_exit_keeps_existing_stats_json(text, tmp_path, capsys):
    path = tmp_path / "err.model"
    path.write_text(text)
    stats_path = tmp_path / "stats.json"
    stats_path.write_text('{"earlier": 1}')
    assert main(["solve", str(path), "--stats-json", str(stats_path)]) == 2
    assert stats_path.read_text() == '{"earlier": 1}'


@pytest.mark.parametrize("text", STATS_ERROR_MODELS, ids=["capacity", "unbound"])
def test_cli_error_exit_leaves_no_new_stats_json(text, tmp_path, capsys):
    path = tmp_path / "err.model"
    path.write_text(text)
    stats_path = tmp_path / "stats.json"
    assert main(["solve", str(path), "--stats-json", str(stats_path)]) == 2
    assert not stats_path.exists()


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv,closed", [
    (["solve", "bench:queens(6)", "--all"], "stdout"),  # buffered: fails at the last flush
    (["solve", "many.model", "--all"], "stdout"),  # more than a pipe holds: fails mid-run
    (["solve", "bench:queens(8)", "--all", "--trace"], "stderr"),
    (["solve", "--help"], "stdout"),
], ids=["stdout-buffered", "stdout-mid-run", "trace", "help"])
def test_cli_closed_reader_exits_141(argv, closed, tmp_path):
    # the read end is closed right after the child starts, long before
    # its first write; many.model also prints more than a pipe holds,
    # so its writes fail whatever the timing
    (tmp_path / "many.model").write_text("var x in 1..20000\nlabel x\n")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "fdprop.cli", *argv],
                            cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    getattr(proc, closed).close()
    other = proc.stderr if closed == "stdout" else proc.stdout
    text = other.read().decode()
    other.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in text and "Exception ignored" not in text, text


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("ref", [
    "bench:magic(1100)", "bench:holed_chain(2000000)", "bench:queens(3000)"])
def test_cli_benchmark_size_over_cap_exits_2(ref, tmp_path):
    # the child runs under a 1 GB address-space limit, so a generator
    # that built its records before refusing the size fails here with a
    # MemoryError, not by exhausting the machine's memory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-m", "fdprop.cli", "solve", ref],
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=120, preexec_fn=_limit_address_space)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr, r.stderr
