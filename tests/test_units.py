"""Unit-conversion helpers: the paper mixes Mb/s, MB, KB, ms."""

import pytest

from repro import units


def test_mbits_per_sec_mpeg1():
    assert units.mbits_per_sec(1.5) == pytest.approx(0.1875)


def test_mbits_per_sec_mpeg2():
    assert units.mbits_per_sec(4.5) == pytest.approx(0.5625)


def test_kilobytes_track():
    assert units.kilobytes(50) == pytest.approx(0.05)


def test_gigabytes():
    assert units.gigabytes(1) == pytest.approx(1000.0)


def test_milliseconds():
    assert units.milliseconds(25) == pytest.approx(0.025)


def test_minutes():
    assert units.minutes(90) == pytest.approx(5400.0)


def test_hours():
    assert units.hours(1) == pytest.approx(3600.0)


def test_hours_to_years_matches_paper_table2():
    # 2.25e8 hours is the paper's Streaming RAID MTTF at C=5, quoted as
    # 25,684.9 years in Table 2.
    assert units.hours_to_years(2.25e8) == pytest.approx(25684.9, abs=0.05)


def test_years_roundtrip():
    assert units.hours_to_years(units.years_to_hours(1100)) == pytest.approx(1100)


def test_identity_helpers():
    assert units.megabytes(7.5) == 7.5
    assert units.seconds(2.5) == 2.5
