import time
from pathlib import Path

from golden import sweep

GOLDEN = Path(__file__).parent / "golden" / "outputs"


def test_cli_outputs_match_the_golden_sweep(tmp_path):
    # every case of the fixed CLI sweep, regenerated in process, matches
    # tests/golden/outputs: the same files and lines, text, metadata and
    # integers exact, floats to 1e-10 relative (1e-12 absolute for
    # roundoff-sized values); the whole sweep takes under 15 s
    start = time.perf_counter()
    sweep.run_sweep(tmp_path)
    elapsed = time.perf_counter() - start
    assert sweep.problems(sweep.compare(GOLDEN, tmp_path)) == []
    assert elapsed < 15.0


def test_comparison_tells_text_integers_and_floats_apart(tmp_path):
    # a float within 1e-10 relative is a move within tolerance, a larger
    # one is beyond it, and a changed integer, word or file set is text or
    # missing
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    lines = {
        "same.csv": ("# n_eff=322\nt,pr\n0,1\n", "# n_eff=322\nt,pr\n0,1\n", "identical"),
        "near.csv": ("0.5,0.123456789012\n", "0.5,0.123456789013\n", "within"),
        "drift.stderr": ("norm drift 1.0e-15\n", "norm drift 4.0e-15\n", "within"),
        "far.csv": ("0.5,0.1234567\n", "0.5,0.1234568\n", "beyond"),
        "count.csv": ("# n_eff=322\n", "# n_eff=323\n", "text"),
        "word.stderr": ("theta=F\n", "theta=none\n", "text"),
    }
    for name, (x, y, _) in lines.items():
        (a / name).write_text(x)
        (b / name).write_text(y)
    (a / "only.csv").write_text("1\n")
    status = {r["file"]: r["status"] for r in sweep.compare(a, b)}
    assert status == {**{name: want for name, (_, _, want) in lines.items()}, "only.csv": "missing"}
    assert {r["file"] for r in sweep.problems(sweep.compare(a, b))} == {"far.csv", "count.csv", "word.stderr",
                                                                       "only.csv"}
