"""Tests for the synthetic data generators (incl. the payments stream)."""
import numpy as np
import pytest

from repro import synth_data


def test_payments_deterministic_in_seed():
    a = synth_data.payments_pdf(n=500, seed=3)
    b = synth_data.payments_pdf(n=500, seed=3)
    assert a.equals(b)
    c = synth_data.payments_pdf(n=500, seed=4)
    assert not a.equals(c)


def test_payments_timestamps_strictly_increasing():
    pdf = synth_data.payments_pdf(n=5_000, rate_hz=500.0, seed=1)
    assert (np.diff(pdf.ts.to_numpy()) >= 1).all()
    assert pdf.ts.is_unique  # unambiguous sliding-window semantics


def test_payments_rate_approximately_respected():
    rate = 500.0
    pdf = synth_data.payments_pdf(n=20_000, rate_hz=rate, seed=2)
    span_s = (pdf.ts.iloc[-1] - pdf.ts.iloc[0]) / 1e3
    achieved = len(pdf) / span_s
    assert achieved == pytest.approx(rate, rel=0.15)


def test_payments_card_skew_is_zipfian():
    pdf = synth_data.payments_pdf(n=30_000, n_cards=1_000, seed=5)
    counts = pdf.card_id.value_counts()
    # heavy head: the busiest card sees far more than the mean card
    assert counts.iloc[0] > 20 * counts.mean()
    assert pdf.card_id.nunique() > 300


def test_payments_pad_fields():
    pdf = synth_data.payments_pdf(n=50, pad_fields=98, seed=6)
    assert len(pdf.columns) == 5 + 98  # mimics the 103-field client feed
    assert pdf["pad_00"].str.startswith("f").all()


def test_payments_spark_roundtrip(spark):
    df = synth_data.payments(spark, n=200, seed=7)
    assert df.count() == 200
    assert set(df.columns) >= {"id", "ts", "card_id", "merchant_id", "amount"}
