"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.api import run_query
from repro.prolog.parser import parse_term
from repro.prolog.writer import term_to_text


def solve(program: str, query: str, **kwargs):
    """Run a query; returns the QueryResult."""
    return run_query(program, query, **kwargs)


def first_binding(program: str, query: str, name: str, **kwargs) -> str:
    """Text of variable ``name`` in the first solution."""
    result = run_query(program, query, **kwargs)
    assert result.solutions, f"no solution for {query}"
    return term_to_text(result.solutions[0][name])


def all_bindings(program: str, query: str, name: str, **kwargs):
    """Texts of variable ``name`` across all solutions."""
    result = run_query(program, query, all_solutions=True, **kwargs)
    return [term_to_text(s[name]) for s in result.solutions]


@pytest.fixture
def append_program() -> str:
    """The canonical two-clause append."""
    return ("append([], L, L).\n"
            "append([H|T], L, [H|R]) :- append(T, L, R).\n")


@pytest.fixture
def member_program() -> str:
    """The canonical member/2."""
    return ("member(X, [X|_]).\n"
            "member(X, [_|T]) :- member(X, T).\n")


def term(text: str):
    """Parse one term (test shorthand)."""
    return parse_term(text)


def assert_logs_name_the_valid_lines(memory) -> None:
    """Each cache's fill log names exactly its valid lines, found by a
    scan of its tag list."""
    for cache in (memory.data_cache, memory.code_cache):
        valid = [i for i, tag in enumerate(cache.tags) if tag is not None]
        assert sorted(cache.fills) == valid
