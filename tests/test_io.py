import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbclink import ConfigError
from qbclink.io import (
    format_complex,
    load_config,
    matrix_from_text,
    matrix_to_text,
    parse_config,
    parse_scalar,
    read_matrix,
    write_matrix,
)


class TestMatrixFormat:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        m[0, 0] = 1e-300 + 1e300j
        m[1, 1] = -0.1 - 0.3j
        again = matrix_from_text(matrix_to_text(m))
        assert np.array_equal(again, m)

    def test_header_shape(self):
        text = matrix_to_text(np.zeros((2, 4), dtype=complex))
        assert text.splitlines()[0] == "2 4"
        assert len(text.splitlines()) == 3

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        m = np.array([[0.5 + 0.25j, -1.0 - 2.0j]])
        write_matrix(path, m)
        assert np.array_equal(read_matrix(path), m)

    def test_entry_format(self):
        assert format_complex(1.5 - 2.5j) == "1.5-2.5j"
        assert complex(format_complex(-0.1 + 0.0j)) == -0.1 + 0.0j

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            matrix_from_text("")
        with pytest.raises(ValueError):
            matrix_from_text("2 2\n1+0j 2+0j\n")
        with pytest.raises(ValueError):
            matrix_from_text("1 2\n1+0j\n")
        with pytest.raises(ValueError, match="row 0 has 2 entries"):
            matrix_from_text(f"1 {10**17}\n1+0j 2+0j\n")
        with pytest.raises(ValueError):
            matrix_from_text("1 1\nnan+0j\n")

    @pytest.mark.parametrize("header", ["0 0", "0 2", "2 -1", "2 x", "1.0 1"])
    def test_header_needs_two_integers_of_at_least_1(self, header):
        with pytest.raises(ValueError, match=f"got '{re.escape(header)}'$"):
            matrix_from_text(f"{header}\n")


class TestConfigParser:
    def test_scalars_comments_and_blanks(self):
        cfg = parse_config(
            """
            # reader geometry
            nt = 8
            eta = 1e-5   # reference
            name = double-rayleigh
            """
        )
        assert cfg == {"nt": 8, "eta": 1e-5, "name": "double-rayleigh"}

    def test_scalar_type_ladder(self):
        assert parse_scalar("42") == 42
        assert isinstance(parse_scalar("42"), int)
        assert parse_scalar("4.5") == 4.5
        assert parse_scalar("1..8") == "1..8"

    def test_nested_lists(self):
        cfg = parse_config(
            """
            paths[0].eta = 0.1
            paths[0].phase = 0.0
            paths[1].eta = 0.2
            paths[1].phase = 1.5
            """
        )
        assert cfg == {
            "paths": [
                {"eta": 0.1, "phase": 0.0},
                {"eta": 0.2, "phase": 1.5},
            ]
        }

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a = 1\na = 2\n")

    def test_list_gap_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("paths[0].eta = 1\npaths[2].eta = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just some words\n")
        with pytest.raises(ConfigError):
            parse_config("bad key! = 3\n")

    def test_scalar_descent_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a = 1\na.b = 2\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 7\nworkers = 2\n")
        assert load_config(path) == {"seed": 7, "workers": 2}

    def test_later_text_replaces_a_value_or_one_field(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 7\npaths[0].eta = 1\npaths[0].phase = 2\n")
        assert load_config(path, "seed = 8", "paths[0].eta = 3\npaths[1].eta = 4") == {
            "seed": 8, "paths": [{"eta": 3, "phase": 2}, {"eta": 4}]}
        assert parse_config("paths[0].eta = 1", "paths = 5") == {"paths": 5}
        assert parse_config("paths = 5", "paths[0].eta = 1") == {"paths": [{"eta": 1}]}

    def test_duplicate_only_within_one_text(self):
        assert parse_config("a = 1", "a = 2", "a = 3 # note") == {"a": 3}
        with pytest.raises(ConfigError, match="^line 2: duplicate key 'a'$"):
            parse_config("a = 1", "a = 2\na = 3")

    def test_gaps_checked_on_merged_lists(self):
        assert parse_config("p[1].x = 1", "p[0].x = 0") == {"p": [{"x": 0}, {"x": 1}]}
        with pytest.raises(ConfigError, match=r"^list 'p' has gaps: indices \[0, 2\]$"):
            parse_config("p[0].x = 0", "p[2].x = 2")


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
# (text, value) of a config value: an int, a float, or a bare string
VALUES = st.one_of(
    st.integers(-10**12, 10**12).map(lambda v: (str(v), v)),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: (repr(v), v)),
    st.from_regex(r"[a-z]+-[a-z0-9]+", fullmatch=True).map(lambda v: (v, v)),
)


@st.composite
def configs(draw):
    """Shuffled config lines in the two key shapes, and the dict they give."""
    names = draw(st.lists(NAMES, unique=True, max_size=6))
    plain = draw(st.integers(0, len(names)))
    expected, lines = {}, []
    for name in names[:plain]:
        text, expected[name] = draw(VALUES)
        lines.append(f"{name} = {text}")
    for name in names[plain:]:
        tables = draw(st.lists(st.dictionaries(NAMES, VALUES, min_size=1, max_size=4),
                               min_size=1, max_size=3))
        expected[name] = [{field: value for field, (_, value) in table.items()}
                          for table in tables]
        lines += [f"{name}[{i}].{field} = {text}"
                  for i, table in enumerate(tables) for field, (text, _) in table.items()]
    return draw(st.permutations(lines)), expected


class TestConfigKeyShapes:
    @given(configs())
    def test_two_shapes_in_any_line_order_parse_to_scalars_and_tables(self, config):
        lines, expected = config
        assert parse_config("\n".join(lines)) == expected

    @pytest.mark.parametrize(
        "key", ["a.b", "a[0]", "a[0].b.c", "a[0].b[1].c", "paths[0]. eta", "paths [0].eta"]
    )
    def test_any_other_key_shape_rejected_by_line(self, key):
        with pytest.raises(ConfigError, match=r"^line 3: "):
            parse_config(f"nt = 8\n# a comment\n{key} = 1\n")

    @pytest.mark.parametrize(
        "text", ["paths = 1\npaths[0].eta = 2\n", "paths[0].eta = 2\npaths = 1\n"]
    )
    def test_name_both_plain_and_list_rejected_in_either_order(self, text):
        with pytest.raises(ConfigError, match=r"^line 2: "):
            parse_config(text)
