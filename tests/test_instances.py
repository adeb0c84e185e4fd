import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswalk.exceptions import (ContractViolationError, DimensionError,
                               InstanceFormatError, NormViolationError,
                               ReportFormatError)
from gswalk.instances import (KINDS, Instance, distinct_rows, generate_instance, json_text,
                              load_instance, ordered_sum, read_text, save_instance,
                              stream_rng, usable_cores, write_text)


class TestInstance:
    def test_identity_columns(self):
        inst = generate_instance("identity", 3, 3, 0)
        assert np.array_equal(inst.matrix, np.eye(3))
        assert inst.d == 3 and inst.n == 3

    def test_rectangular_identity(self):
        inst = generate_instance("identity", 4, 2, 0)
        assert inst.matrix.shape == (4, 2)
        assert np.array_equal(inst.matrix[:, 1], np.array([0.0, 1.0, 0.0, 0.0]))

    def test_identity_needs_n_le_d(self):
        with pytest.raises(DimensionError):
            generate_instance("identity", 2, 3, 0)

    def test_duplicated_column(self):
        inst = generate_instance("duplicated_column", 2, 2, 0)
        e1 = np.array([1.0, 0.0])
        assert np.array_equal(inst.matrix[:, 0], e1)
        assert np.array_equal(inst.matrix[:, 1], e1)

    def test_unit_sphere_norms(self):
        inst = generate_instance("random_unit_sphere", 4, 8, 42)
        norms = np.linalg.norm(inst.matrix, axis=0)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_in_ball_norms(self):
        inst = generate_instance("random_in_ball", 3, 10, 5)
        norms = np.linalg.norm(inst.matrix, axis=0)
        assert np.all(norms <= 1.0) and np.all(norms > 0.0)

    def test_sign_columns(self):
        inst = generate_instance("sign_columns", 4, 6, 9)
        assert np.all(np.isin(inst.matrix * 2.0, [-1.0, 1.0]))
        assert np.allclose(np.linalg.norm(inst.matrix, axis=0), 1.0)

    def test_generation_is_pure(self):
        a = generate_instance("random_unit_sphere", 4, 8, 42)
        b = generate_instance("random_unit_sphere", 4, 8, 42)
        assert np.array_equal(a.matrix, b.matrix)
        c = generate_instance("random_unit_sphere", 4, 8, 43)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_unknown_kind(self):
        with pytest.raises(InstanceFormatError):
            generate_instance("mystery", 2, 2, 0)

    def test_norm_violation(self):
        with pytest.raises(NormViolationError):
            Instance(np.array([[1.5], [0.0]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,)])
    def test_empty_or_flat_matrix_rejected(self, shape):
        with pytest.raises(DimensionError):
            Instance(np.zeros(shape))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d, n", [(0, 3), (3, 0)])
    def test_generate_needs_positive_sizes(self, kind, d, n):
        with pytest.raises(DimensionError, match="must be >= 1"):
            generate_instance(kind, d, n, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(InstanceFormatError):
            Instance(np.array([[np.nan], [0.0]]))

    def test_matrix_read_only(self):
        inst = generate_instance("identity", 2, 2, 0)
        with pytest.raises(ValueError):
            inst.matrix[0, 0] = 2.0

    @pytest.mark.parametrize("zero_column", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 12, 40])
    @pytest.mark.parametrize("d", [1, 2, 8, 16])
    def test_images_bitwise(self, d, n, zero_column):
        assert_images_bitwise(d, n, 7, zero_column, 9)

    @given(d=st.sampled_from([1, 2, 8, 16]), n=st.sampled_from([1, 3, 12, 40]),
           seed=st.integers(0, 2**32 - 1), zero_column=st.booleans(), rows=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_images_bitwise_property(self, d, n, seed, zero_column, rows):
        assert_images_bitwise(d, n, seed, zero_column, rows)


def assert_images_bitwise(d: int, n: int, seed: int, zero_column: bool, rows: int) -> None:
    """Each row of ``Instance.images`` has the bits of ``matrix @ x``."""
    rng = stream_rng(seed)
    m = rng.standard_normal((d, n))
    m /= np.linalg.norm(m, axis=0)
    if zero_column:
        m[:, rng.integers(n)] = 0.0
    inst = Instance(m)
    signs = rng.choice([-1.0, 1.0], size=(rows, n))
    images = inst.images(signs)
    assert images.shape == (rows, d)
    for x, image in zip(signs, images):
        assert image.tobytes() == (inst.matrix @ x).tobytes()


class TestFileFormat:
    def test_load_identity(self, tmp_path):
        p = tmp_path / "id.txt"
        p.write_text("2 2\n1 0\n0 1\n")
        inst = load_instance(p)
        assert np.array_equal(inst.matrix, np.eye(2))

    def test_load_single_column(self, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("1 1\n0.5\n")
        inst = load_instance(p)
        assert inst.d == 1 and inst.n == 1
        assert inst.matrix[0, 0] == 0.5

    def test_load_norm_violation(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 1\n1.5\n0\n")
        with pytest.raises(NormViolationError):
            load_instance(p)

    def test_load_parse_failure(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 1\n0.5\nabc\n")
        with pytest.raises(InstanceFormatError):
            load_instance(p)

    def test_load_dimension_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 2\n1 0\n0 1\n")
        with pytest.raises(DimensionError):
            load_instance(p)

    def test_load_row_width_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2\n1 0\n0 1 0\n")
        with pytest.raises(DimensionError):
            load_instance(p)

    def test_load_bad_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("two 2\n1 0\n0 1\n")
        with pytest.raises(InstanceFormatError):
            load_instance(p)

    @pytest.mark.parametrize("text, message", [("", "empty instance file"),
                                               ("\n  \n", "empty instance file"),
                                               ("2\n1 0\n0 1\n", "header must be 'd n'"),
                                               ("2 2 2\n1 0\n0 1\n", "header must be 'd n'")])
    def test_load_empty_or_short_header(self, tmp_path, text, message):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(InstanceFormatError, match=message):
            load_instance(p)

    def test_save_identity_text(self, tmp_path):
        p = tmp_path / "id.txt"
        save_instance(generate_instance("identity", 2, 2, 0), p)
        assert p.read_text() == "2 2\n1 0\n0 1\n"

    def test_round_trip(self, tmp_path):
        inst = generate_instance("random_unit_sphere", 4, 8, 42)
        p = tmp_path / "r.txt"
        save_instance(inst, p)
        back = load_instance(p)
        assert np.max(np.abs(back.matrix - inst.matrix)) <= 1e-15

    def test_round_trip_is_exact(self, tmp_path):
        # 17 significant digits reproduce doubles bit for bit
        inst = generate_instance("random_in_ball", 5, 7, 3)
        p = tmp_path / "r.txt"
        save_instance(inst, p)
        assert np.array_equal(load_instance(p).matrix, inst.matrix)

    def test_universal_newlines(self, tmp_path):
        # \r\n and \r end lines; \x0c and \u2028 are whitespace inside one
        p = tmp_path / "id.txt"
        p.write_bytes("2 2\r\n1\x0c0\r0\u20281\n".encode("utf-8"))
        assert np.array_equal(load_instance(p).matrix, np.eye(2))

    def test_undecodable_instance(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"1 1\n0.5\xff\n")
        with pytest.raises(InstanceFormatError, match="not UTF-8"):
            load_instance(p)

    def test_save_unwritable(self, tmp_path):
        inst = generate_instance("identity", 2, 2, 0)
        with pytest.raises(OSError):
            save_instance(inst, tmp_path / "no" / "such" / "dir.txt")


class TestSharedRules:
    @pytest.mark.parametrize("key", [(), (0,), (97,), (5, 2)])
    def test_stream_rng_is_the_seeded_stream(self, key):
        ref = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=key))
        assert np.array_equal(stream_rng(7, *key).random(5), ref.random(5))

    def test_root_stream_is_the_plain_seed(self):
        ref = np.random.default_rng(np.random.SeedSequence(entropy=7))
        assert np.array_equal(stream_rng(7).random(5), ref.random(5))

    def test_text_round_trip(self, tmp_path):
        p = tmp_path / "t.txt"
        write_text(p, "a\nb\u00e9\n")
        assert p.read_bytes() == "a\nb\u00e9\n".encode("utf-8")
        assert read_text(p, ReportFormatError) == "a\nb\u00e9\n"

    def test_read_text_raises_callers_error(self, tmp_path):
        p = tmp_path / "t.bin"
        p.write_bytes(b"ok\n\x80\n")
        with pytest.raises(ReportFormatError, match="not UTF-8"):
            read_text(p, ReportFormatError)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_text_refuses_non_finite(self, value):
        with pytest.raises(ContractViolationError, match="strict JSON"):
            json_text({"rhs": value})

    def test_json_text_layout(self):
        assert json_text({"b": [1, 2.5], "a": None}) == (
            '{\n  "b": [\n    1,\n    2.5\n  ],\n  "a": null\n}\n')

    def test_usable_cores_is_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert usable_cores() == len(os.sched_getaffinity(0))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
            assert usable_cores() == 3
            monkeypatch.delattr(os, "sched_getaffinity")
        # without an affinity call, the host's count; none known is one core
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cores() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int32, float])
    @pytest.mark.parametrize("m", [1, 2, 40])
    def test_distinct_rows_number_by_first_appearance(self, dtype, m):
        # active rows, freeze rows and sign rows, with repeats; m = 2 is
        # two equal rows
        gen = np.random.default_rng(m)
        pool = np.array([[0, 1, 1, 0, 1], [1, 1, 0, 0, 1], [0, 0, 0, 1, 1]])
        rows = pool[gen.integers(0, len(pool), m) if m != 2 else [1, 1]].astype(dtype)
        if dtype is float:
            rows = 2.0 * rows - 1.0
        first, number = distinct_rows(rows)
        seen: dict[bytes, int] = {}
        want = [seen.setdefault(row.tobytes(), len(seen)) for row in rows]
        assert number.tolist() == want
        assert first.tolist() == [want.index(k) for k in range(len(seen))]
        assert rows[first][number].tobytes() == rows.tobytes()
        # every row equal by its bytes; a float row that differs only in the
        # sign of a zero is another row
        same_first, same_number = distinct_rows(np.repeat(rows[-1:], m, axis=0))
        assert same_first.tolist() == [0] and same_number.tolist() == [0] * m
        for index in (first, number, same_first, same_number):
            assert index.dtype == np.intp
        if dtype is float:
            signed = np.zeros((m + 1, 5))
            signed[1:, 2] = -0.0
            assert distinct_rows(signed)[1].tolist() == [0] + [1] * m

    @pytest.mark.parametrize("values, total", [([], 0.0), ([0.25], 0.25),
                                               # fsum and 3.12's sum() give 1.0
                                               ([1e16, 1.0, -1e16], 0.0)])
    def test_ordered_sum_adds_left_to_right(self, values, total):
        assert ordered_sum(np.array(values)) == total
