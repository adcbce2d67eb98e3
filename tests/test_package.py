"""The package docstring's usage example, run as a doctest."""

import doctest

import gibbsprep


def test_package_docstring_example_runs():
    results = doctest.testmod(gibbsprep)
    assert results.attempted > 0
    assert results.failed == 0
