"""Scaling to full host speed: a time is divided by the slowdown that the
reference blocks timed next to it show, and by nothing else."""
import pytest

import hostspeed

REF = hostspeed.REFERENCE_S


def test_times_are_divided_by_the_local_slowdown():
    times = [0.02] * 6 + [0.03] * 6  # the host slows by 1.5x halfway through
    refs = [REF] * 6 + [1.5 * REF] * 6
    out = hostspeed.scaled(times, refs, window=1)
    assert out[0] == pytest.approx(0.02)
    assert out[-1] == pytest.approx(0.02)


def test_one_slow_block_does_not_move_its_neighbours():
    refs = [REF] * 5
    refs[2] = 3 * REF
    assert hostspeed.scaled([0.01] * 5, refs, window=2) == pytest.approx([0.01] * 5)


def test_the_block_does_fixed_work():
    ref = hostspeed.Reference()
    assert ref() > 0
    assert (ref.indices == hostspeed.Reference().indices).all()
