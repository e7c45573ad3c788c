"""Check records, report aggregation, and the three renderers."""

import csv
import io
import json

import pytest

from psiring.reports import (
    CHECK_ANCHORS,
    FAIL,
    INFORMATIVE,
    PASS,
    Report,
    make_check,
    render,
)
from psiring.series import degree_grid


def fresh_report():
    return Report("psiring", "0.0.0", {"n": 4, "seed": 1})


def test_make_check_status_logic():
    assert make_check("krull-dimension", {}, 5, 5).status == PASS
    assert make_check("krull-dimension", {}, 5, 6).status == FAIL
    assert make_check("koszul-dual-vs-series", {}, 5, 6, informative=True).status == INFORMATIVE
    # explicit ok overrides the equality default
    assert make_check("singular-locus-bound", {}, "dim < 5", "0", ok=True).status == PASS


def test_every_check_name_has_an_anchor():
    rec = make_check("slice-vs-series", {}, 1, 1)
    assert rec.anchor == CHECK_ANCHORS["slice-vs-series"]
    assert all(isinstance(v, str) and v for v in CHECK_ANCHORS.values())


def test_unknown_check_name_rejected():
    with pytest.raises(KeyError):
        make_check("not-a-check", {}, 1, 1)


def test_overall_and_exit_code():
    r = fresh_report()
    assert r.overall == PASS  # empty check list is a pass
    assert r.exit_code == 0
    r.add(make_check("krull-dimension", {}, 5, 5))
    r.add(make_check("koszul-dual-vs-series", {}, 1, 2, informative=True))
    assert r.overall == PASS  # informative records never fail a run
    r.add(make_check("krull-dimension", {}, 5, 6))
    assert r.overall == FAIL
    assert r.exit_code == 1


def test_json_renders_sorted_and_parseable():
    r = fresh_report()
    r.add(make_check("krull-dimension", {"n": 4}, 5, 5))
    r.add_table("t", ["x", "y"], [[1, 2], [3, 4]])
    data = render(r, "json")
    d = json.loads(data)
    assert d["overall"] == "pass"
    assert d["checks"][0]["anchor"]
    # keys are emitted sorted for byte determinism
    assert data == render(r, "json")
    top = list(d.keys())
    assert top == sorted(top)


def test_csv_sections():
    r = fresh_report()
    r.add(make_check("krull-dimension", {}, 5, 5))
    r.add_table("dims", ["a", "d"], [[0, 1], [1, 3]])
    text = render(r, "csv").decode()
    assert "# table: dims" in text
    assert "# checks" in text
    assert text.strip().endswith("# overall,pass")
    # the table body parses as csv
    body = text.split("# table: dims\n", 1)[1].split("#", 1)[0]
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0] == ["a", "d"]
    assert rows[1:] == [["0", "1"], ["1", "3"]]


def test_md_renders_table_and_verdict():
    r = fresh_report()
    r.add(make_check("krull-dimension", {}, 5, 6))
    text = render(r, "md").decode()
    assert "**fail**" in text
    assert "| krull-dimension | fail |" in text


def test_unknown_format_rejected():
    from psiring.errors import UsageError
    with pytest.raises(UsageError):
        render(fresh_report(), "yaml")


def test_degree_grid_orders_by_total_then_lex():
    # the coefficient-table order of every report
    assert degree_grid(2, 2) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
