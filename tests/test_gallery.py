"""Worked instances: documented numbers and serialization stability."""

import pytest

from ordmech import EXAMPLES, OrdmechError, gen_worked_example, verify_worked_example
from ordmech.fileio import parse_instance, serialize_instance


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_verifies(name):
    results = verify_worked_example(name)
    assert results
    failed = [r for r in results if not r.passed]
    assert not failed, failed


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_serialization_round_trip(name):
    inst = gen_worked_example(name)
    text = serialize_instance(inst)
    again = serialize_instance(parse_instance(text))
    assert text == again


def test_parameters_flow_through():
    small = gen_worked_example("sum5_tight", q=7, eps=1e-3)
    assert small.profile.n == 15
    results = verify_worked_example("sum5_tight", q=7, eps=1e-3)
    assert all(r.passed for r in results)
    # the checker gets the defaults of the parameters not given
    assert all(r.passed for r in verify_worked_example("sum5_tight", q=7))

    lb = gen_worked_example("kmedian_lb", q=3)
    assert lb.n == 7
    assert all(r.passed for r in verify_worked_example("kmedian_lb", q=3))


@pytest.mark.parametrize("eps", [1e-3, 0.01, 0.1, 0.4, 0.5])
def test_median_matching_unbounded_verifies_at_every_eps(eps):
    # the ratio 1/(2 eps) holds, and is checked, over the whole range
    failed = [r for r in verify_worked_example("median_matching_unbounded", eps=eps)
              if not r.passed]
    assert not failed, failed


def test_unknown_example_rejected():
    with pytest.raises(OrdmechError):
        gen_worked_example("mystery_instance")
