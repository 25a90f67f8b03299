import json
import random
import time

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
    assert set(payload) == {"backtracks", "activations", "solutions", "time_ms"}
    assert payload["solutions"] == 4


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


def test_cli_no_coalesce_same_results(tmp_path, capsys):
    r1 = solve_model(get_benchmark("zebra"), SolverConfig())
    cfg = SolverConfig(coalesce=False)
    r2 = solve_model(get_benchmark("zebra"), cfg)
    assert r1.solutions == r2.solutions
    assert r1.stats.backtracks == r2.stats.backtracks


def test_cli_verify_reports_agreement(tmp_path, capsys):
    path = tmp_path / "tiny.model"
    path.write_text(TINY)
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "solutions agree: yes" in out
    assert "interval consistent at root: yes" in out
    assert "arc consistent at root: yes" in out


def test_cli_verify_unsat_model(tmp_path, capsys):
    path = tmp_path / "unsat.model"
    path.write_text("var x in 1..2\nvar y in 1..2\nvar z in 1..2\n"
                    "alldistinct x y z\nlabel x y z\n")
    code = main(["verify", str(path), "--alldistinct", "wac"])
    out = capsys.readouterr().out
    assert code == 0
    assert "solutions agree: yes (engine 0, oracle 0)" in out


def test_cli_verify_refuses_before_solving(capsys):
    started = time.perf_counter()
    assert main(["verify", "bench:queens(25)"]) == 2
    assert time.perf_counter() - started < 10  # the full solve takes minutes
    assert "oracle refused" in capsys.readouterr().out


def test_cli_unknown_benchmark(capsys):
    assert main(["solve", "bench:nope"]) == 2


def test_domain_width_cap_is_a_model_error():
    with pytest.raises(ModelError):
        parse_model("var x in 0..2000000\nlabel x\n")


def test_posting_capacity_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.model"
    path.write_text("var x in 0..1000\nvar y in 0..1000\n"
                    "lin 0 9000000000000000000*x 1*y = 0\nlabel x y\n")
    assert main(["solve", str(path)]) == 2


def test_underdetermined_label_list_exits_2(tmp_path, capsys):
    # y is never labeled and nothing binds it: a model error
    path = tmp_path / "under.model"
    path.write_text("var x in 1..3\nvar y in 1..3\nneq x y 0\nlabel x\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'y'" in err
