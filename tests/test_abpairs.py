"""The A/B pair verdict of tools/abpairs.py on canned readings; nothing is run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from abpairs import verdict  # noqa: E402

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.5, 99.5, 100.0]


def test_a_gain_needs_nine_wins_in_ten_and_a_median_past_the_parent_spread():
    v = verdict(PARENT, [p * 1.2 for p in PARENT], "higher", 0.25)
    assert v["verdict"] == "gain" and v["wins"] == 10
    assert v["parent_median"] == 100.0 and v["change_median"] == 120.0
    assert v["change"] == pytest.approx(0.2)
    # Eight wins of ten are too few, however large the median gain.
    change = [p * 1.2 for p in PARENT[:8]] + [p * 0.9 for p in PARENT[8:]]
    assert verdict(PARENT, change, "higher", 0.25)["verdict"] == "within"
    # Ten wins by less than the parent's interquartile range are no gain either.
    assert verdict(PARENT, [p + 0.5 for p in PARENT], "higher", 0.25)["verdict"] == "within"
    # Fewer than ten pairs never show a gain, however clean.
    assert verdict(PARENT[:9], [p * 1.2 for p in PARENT[:9]], "higher", 0.25)["verdict"] == "within"


def test_a_change_that_fails_more_gets_no_gain():
    faster = [p * 1.2 for p in PARENT]
    assert verdict(PARENT, faster, "higher", 0.25, change_fails_more=True)["verdict"] == "within"
    # A loss is still a loss.
    slower = [p * 0.7 for p in PARENT]
    assert verdict(PARENT, slower, "higher", 0.25, change_fails_more=True)["verdict"] == "loss"


def test_lower_is_better_turns_the_comparison_round():
    v = verdict(PARENT, [p * 0.8 for p in PARENT], "lower", 0.25)
    assert v["verdict"] == "gain" and v["wins"] == 10 and v["change"] == pytest.approx(-0.2)
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)["verdict"] == "loss"
    assert verdict(PARENT, [p * 1.1 for p in PARENT], "lower", 0.25)["verdict"] == "within"


def test_a_loss_is_a_median_worse_than_the_bound():
    assert verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)["verdict"] == "loss"
    assert verdict(PARENT, [p * 0.8 for p in PARENT], "higher", 0.25)["verdict"] == "within"
    assert verdict(PARENT, [p * 0.8 for p in PARENT], "higher", 0.1)["verdict"] == "loss"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.2]
    assert verdict(wide, [w * 1.05 for w in wide], "lower", 0.25)["verdict"] == "unresolved"
    # Five wins and five ties leave a much better median unresolved too.
    assert verdict(wide, [0.99] * 5 + wide[5:], "lower", 0.25)["verdict"] == "unresolved"
    # Every change run better than every parent run resolves it; a gain still needs
    # a median past the parent's interquartile range (0.825 here).
    assert verdict(wide, [0.9] * 10, "lower", 0.25)["verdict"] == "within"
    assert verdict(wide, [0.5] * 10, "lower", 0.25)["verdict"] == "gain"


def test_zero_medians_and_bad_inputs():
    assert verdict([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.25)["verdict"] == "within"
    assert verdict([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "lower", 0.25)["verdict"] == "loss"
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "higher", 0.25)
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "higher", 0.25)
