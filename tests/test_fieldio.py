import numpy as np
import pytest

import doublephase as dp
from doublephase.fieldio import FieldFormatError


def test_field_round_trip_is_bit_identical(tmp_path):
    chart, _ = dp.build_torus(1, [64])
    rng = dp.substream(2, "io")
    tricky = rng.standard_normal(64)
    tricky[0] = np.pi
    tricky[1] = 1e-300
    tricky[2] = -0.0
    tricky[3] = 1.0 / 3.0
    u = chart.field(tricky)
    path = tmp_path / "u.field"
    dp.write_field(path, u)
    back = dp.read_field(path, chart)
    assert np.array_equal(u.values, back.values)
    dp.write_field(tmp_path / "u2.field", back)
    assert (tmp_path / "u.field").read_bytes() == (tmp_path / "u2.field").read_bytes()


def test_metric_round_trip(tmp_path):
    rng = dp.substream(4, "metric-io")
    base = rng.standard_normal((8, 8, 2, 2))
    g = np.einsum("...ab,...cb->...ac", base, base) + 0.5 * np.eye(2)
    chart, metric = dp.build_torus(2, [8, 8], g)
    path = tmp_path / "g.metric"
    rows = [f"{a!r} {b!r} {c!r}" for a, b, c in g[..., [0, 0, 1], [0, 1, 1]].reshape(-1, 3).tolist()]
    path.write_text("nehari-field v1 metric\ndim 2 sizes 8 8\n" + "\n".join(rows) + "\n")
    back = dp.read_metric(path, chart)
    assert np.array_equal(metric.inv, back.inv) and np.array_equal(metric.sqrt_det, back.sqrt_det)


def test_read_errors_carry_line_numbers(tmp_path):
    chart, _ = dp.build_torus(1, [8])
    path = tmp_path / "bad.field"
    path.write_text("nehari-field v1\ndim 1 sizes 8\n1.0\nnot-a-number\n")
    with pytest.raises(FieldFormatError, match=r"bad\.field:4"):
        dp.read_field(path, chart)

    path2 = tmp_path / "short.field"
    path2.write_text("nehari-field v1\ndim 1 sizes 8\n" + "1.0\n" * 3)
    with pytest.raises(FieldFormatError, match="expected 8 values, got 3"):
        dp.read_field(path2, chart)

    path3 = tmp_path / "head.field"
    path3.write_text("wrong header\n")
    with pytest.raises(FieldFormatError, match=r"head\.field:1"):
        dp.read_field(path3, chart)


def test_read_rejects_chart_mismatch(tmp_path):
    chart, _ = dp.build_torus(1, [64])
    other, _ = dp.build_torus(1, [32])
    path = tmp_path / "u.field"
    dp.write_field(path, chart.constant(1.0))
    with pytest.raises(FieldFormatError, match="does not match chart"):
        dp.read_field(path, other)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_field_value_is_line_anchored(tmp_path, bad):
    chart, _ = dp.build_torus(1, [8])
    path = tmp_path / "bad.field"
    path.write_text("nehari-field v1\ndim 1 sizes 8\n" + "1.0\n" * 3 + f"{bad}\n" + "1.0\n" * 4)
    with pytest.raises(FieldFormatError, match=rf"bad\.field:6: non-finite value in '{bad}'"):
        dp.read_field(path, chart)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_metric_value_is_line_anchored(tmp_path, bad):
    chart, _ = dp.build_torus(2, [4, 4])
    path = tmp_path / "bad.metric"
    rows = ["1.0 0.0 1.0"] * 16
    rows[9] = f"1.0 {bad} 1.0"
    path.write_text("nehari-field v1 metric\ndim 2 sizes 4 4\n" + "\n".join(rows) + "\n")
    with pytest.raises(FieldFormatError, match=rf"bad\.metric:12: non-finite value"):
        dp.read_metric(path, chart)


def test_metric_row_of_the_wrong_width_is_line_anchored(tmp_path):
    chart, _ = dp.build_torus(2, [4, 4])
    path = tmp_path / "wide.metric"
    rows = ["1.0 0.0 1.0"] * 16
    rows[4] = "1.0 0.0"
    path.write_text("nehari-field v1 metric\ndim 2 sizes 4 4\n" + "\n".join(rows) + "\n")
    with pytest.raises(FieldFormatError, match=r"wide\.metric:7: expected 3 values per row, got 2"):
        dp.read_metric(path, chart)


def test_metric_row_counts_are_line_anchored(tmp_path):
    chart, _ = dp.build_torus(1, [4])
    head = "nehari-field v1 metric\ndim 1 sizes 4\n"
    short, long = tmp_path / "short.metric", tmp_path / "long.metric"
    short.write_text(head + "2.0\n" * 3)
    long.write_text(head + "2.0\n" * 5)
    with pytest.raises(FieldFormatError, match=r"short\.metric:5: expected 4 rows, got 3"):
        dp.read_metric(short, chart)
    with pytest.raises(FieldFormatError, match=r"long\.metric:7: more rows than 4 nodes"):
        dp.read_metric(long, chart)
