"""Sanity tests for the benchmark program suite definitions."""

import json
from pathlib import Path

import pytest

from repro.eval import source_loc
from repro.programs import ALL_PROGRAMS, Program, by_name, by_tag


class TestRegistry:
    def test_names_unique(self):
        names = [p.name for p in ALL_PROGRAMS]
        assert len(names) == len(set(names))

    def test_by_name(self):
        assert by_name("fannkuch").name == "fannkuch"
        with pytest.raises(KeyError):
            by_name("no_such_program")

    def test_by_tag_partitions(self):
        imperative = set(p.name for p in by_tag("imperative"))
        higher_order = set(p.name for p in by_tag("higher-order"))
        assert imperative and higher_order
        assert not imperative & higher_order

    def test_every_program_parses_and_checks(self):
        from repro.frontend import compile_to_ast

        for program in ALL_PROGRAMS:
            module = compile_to_ast(program.source)
            entries = {f.name for f in module.functions}
            assert program.entry in entries, program.name

    def test_bench_args_strictly_larger(self):
        # bench-sized inputs should demand at least as much work as the
        # correctness-test inputs (first argument is the size knob).
        for program in ALL_PROGRAMS:
            if program.test_args and program.bench_args:
                assert program.bench_args[0] >= program.test_args[0], \
                    program.name

    def test_loc_counts_positive(self):
        for program in ALL_PROGRAMS:
            assert source_loc(program.source) > 0

    def test_pe_programs_carry_markers(self):
        for program in by_tag("pe"):
            assert "@" in program.source or "$" in program.source


def _catalogue_programs():
    path = Path(__file__).parents[1] / "perfbench" / "catalogue.json"
    return json.loads(path.read_text())["programs"]


def test_every_program_optimizes_without_incidents():
    """No pass of the default pipeline rolls back or is quarantined on
    the suite or the service benchmark's catalogue: an incident there
    means a compile silently fell back to less optimized code.  Every
    compile also reaches its fixed point before the round bound: a
    program that ends at ``MAX_ROUNDS`` was still being rewritten."""
    from repro.frontend import compile_source
    from repro.transform.pipeline import MAX_ROUNDS, optimize

    sources = {p.name: p.source for p in ALL_PROGRAMS}
    sources.update((p["name"], p["source"]) for p in _catalogue_programs())
    for name, source in sources.items():
        stats = optimize(compile_source(source, optimize=False))
        assert stats.incidents == [], (name, stats.incidents)
        assert stats.rounds < MAX_ROUNDS, (name, stats.rounds)
