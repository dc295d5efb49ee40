"""Deterministic serialization: JSON, CSV, digests, manifests, embeddings."""

import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from revtori import fields, persistence
from revtori.errors import PersistenceError
from revtori.newton import TorusEmbedding, load_embedding

from conftest import GOLDEN


def small_embedding(amp: float = 1e-3, x_off=None) -> TorusEmbedding:
    if x_off is None:
        x_off = fields.harmonic_field(1, 4, [1], 1, amp, kind="sin")
    y = fields.harmonic_field(1, 4, [1], 1, 0.5 * amp, kind="cos")
    return TorusEmbedding(xy=fields.stack_components(x_off, y), omega=np.array([GOLDEN]),
                          r0=0.05, mode="flow")


def save_embedding(path, emb: TorusEmbedding) -> None:
    persistence.save_json(path, emb.to_dict())


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        a = persistence.canonical_json({"b": 1, "a": [2, 3]})
        b = persistence.canonical_json({"a": [2, 3], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a) == {"a": [2, 3], "b": 1}

    def test_numpy_types_are_coerced(self):
        obj = {"f": np.float64(0.1), "i": np.int64(7), "b": np.bool_(True),
               "arr": np.arange(3.0), "tup": (1, 2), "none": None}
        text = persistence.canonical_json(obj)
        data = json.loads(text)
        assert data == {"f": 0.1, "i": 7, "b": True,
                        "arr": [0.0, 1.0, 2.0], "tup": [1, 2], "none": None}

    def test_numpy_text_matches_python_text(self):
        obj = {"a": np.arange(2.0), "b": np.bool_(False), "f": np.float64(-0.0),
               "i": np.int64(3), "t": (np.float32(0.5), 1e-300)}
        plain = {"a": [0.0, 1.0], "b": False, "f": -0.0, "i": 3, "t": [0.5, 1e-300]}
        assert persistence.canonical_json(obj) == persistence.canonical_json(plain)
        assert persistence.canonical_json(obj) == (
            '{"a":[0.0,1.0],"b":false,"f":-0.0,"i":3,"t":[0.5,1e-300]}\n')

    def test_float_text_round_trips_exactly(self):
        values = [0.1, 1.0 / 3.0, 2.0 ** -52, 6.23633899902164]
        data = json.loads(persistence.canonical_json({"v": values}))
        assert data["v"] == values

    def test_unserialisable_rejected(self):
        with pytest.raises(PersistenceError):
            persistence.canonical_json({"s": {1, 2}})
        with pytest.raises(PersistenceError):
            persistence.canonical_json({(1, 2): 0})
        with pytest.raises(PersistenceError):
            persistence.canonical_json({"z": np.array([1j])})


def _tolist(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialise object of type {type(obj).__name__}")


# a JSON string token, or a run of whitespace between tokens
_TOKEN_GAP = re.compile(r'("(?:[^"\\]|\\.)*")|\s+')


def _indented_text_compacted(obj) -> str:
    """The indent=2 text run directories used to hold, whitespace between tokens removed.

    json.dumps runs its pure-Python encoder when it indents, so this is an
    independent reading of what canonical_json's C-encoder text must be.
    """
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True, default=_tolist)
    return _TOKEN_GAP.sub(lambda m: m.group(1) or "", text) + "\n"


def _nested(depth, leaf, wrap):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


class TestCanonicalJsonOracle:
    """canonical_json differs from the old indent=2 text in whitespace only."""

    @pytest.mark.parametrize("obj", [
        {1, 2}, {"s": {1, 2}}, {(1, 2): 0}, {np.int64(1): 0}, np.array([1j]),
        {"z": np.array([[1.0], [1j]])}, np.complex128(1j), b"bytes", object(),
        {1: 0, "a": 1}, {None: 0, False: 1}, [10 ** 5000],
        _nested(10_000, [], lambda o: [o]), _nested(10_000, 0, lambda o: {"a": o}),
    ])
    def test_unencodable_raises_persistence_error(self, obj):
        with pytest.raises(PersistenceError):
            persistence.canonical_json(obj)

    def test_cycles_raise_persistence_error(self):
        loop = [1.0]
        loop.append(loop)
        table = {"a": []}
        table["a"].append(table)
        for obj in (loop, table, {"x": [loop]}):
            with pytest.raises(PersistenceError):
                persistence.canonical_json(obj)

    @pytest.mark.parametrize("obj", [
        {"a": {}, "b": [], "c": (), "d": [[], {}]},
        {1: "int", 2.5: "float", False: "bool", float("nan"): "nan", -1: None},
        {None: 1}, {False: 1}, {float("-inf"): [-0.0]},
        _nested(200, [1, 2.5], lambda o: [o]),
        _nested(200, {"x": 1}, lambda o: {"a": o}),
        {"grid": np.arange(6.0).reshape(2, 3), "n": np.int64(-3), "b": np.bool_(False),
         "f": np.float64(-0.0), "h": np.float16(0.1), "e": np.zeros((0, 2)),
         "s": ['a "b" c\\', "\u00e9 \u2028\t\n", "\U0001f600", "\ud800"],
         "x": [5e-324, 1.7976931348623157e308, float("nan"), float("inf"), 10 ** 40]},
    ])
    def test_edge_cases(self, obj):
        assert persistence.canonical_json(obj) == _indented_text_compacted(obj)


class TestJsonFiles:
    def test_round_trip(self, tmp_path):
        obj = {"name": "demo", "values": [1.5, -2.25], "nested": {"k": 3}}
        path = tmp_path / "sub" / "data.json"
        persistence.save_json(path, obj)
        assert persistence.load_json(path) == obj
        # identical content twice -> identical bytes
        twin = tmp_path / "twin.json"
        persistence.save_json(twin, obj)
        assert twin.read_bytes() == path.read_bytes()

    def test_bad_json_and_missing_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(PersistenceError):
            persistence.load_json(bad)
        with pytest.raises(PersistenceError):
            persistence.load_json(tmp_path / "absent.json")


class TestCsv:
    def test_formats_and_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        persistence.emit_csv(path, ("step", "value", "ok"),
                             [[0, 0.1, True], [1, 1.0 / 3.0, False]])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,value,ok"
        cells = lines[1].split(",")
        assert cells[0] == "0" and cells[2] == "true"
        assert float(cells[1]) == 0.1  # 17 significant digits round-trip
        assert float(lines[2].split(",")[1]) == 1.0 / 3.0

    def test_empty_table_keeps_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        persistence.emit_csv(path, ("a", "b"), [])
        assert path.read_text(encoding="utf-8") == "a,b\n"


class TestDigests:
    def test_known_vector(self, tmp_path):
        path = tmp_path / "abc.bin"
        path.write_bytes(b"abc")
        assert persistence.sha256_file(path) == hashlib.sha256(b"abc").hexdigest()

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            persistence.sha256_file(tmp_path / "nope")


class TestManifest:
    def test_round_trip(self, tmp_path):
        man = persistence.RunManifest(
            name="kam-run", command="kam-run --mode flow",
            config={"eps": 1e-4, "M": 2}, seed=7,
            outputs={"embedding.json": "00" * 32},
            formats={"convergence.csv": "convergence/2"})
        path = tmp_path / "manifest.json"
        persistence.write_manifest(path, man)
        back = persistence.load_manifest(path)
        assert back.to_dict() == man.to_dict()
        assert back.formats == {"convergence.csv": "convergence/2"}
        assert back.versions["numpy"] == np.__version__

    def test_manifest_without_formats_loads(self):
        data = persistence.RunManifest(name="x", command="y", config={}).to_dict()
        del data["formats"]
        assert persistence.RunManifest.from_dict(data).formats == {}

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "manifest.json"
        persistence.save_json(path, {"format": "kam-run/999", "name": "x",
                                     "command": "y", "config": {}})
        with pytest.raises(PersistenceError):
            persistence.load_manifest(path)

    def test_rejects_missing_keys(self):
        with pytest.raises(PersistenceError):
            persistence.RunManifest.from_dict(
                {"format": persistence.MANIFEST_FORMAT, "name": "x"})

    def test_package_versions_lists_the_stack(self):
        versions = persistence.package_versions()
        assert {"revtori", "numpy", "scipy", "python"} <= set(versions)


class TestEmbeddingFiles:
    def test_round_trip_preserves_values(self, tmp_path):
        emb = small_embedding()
        path = tmp_path / "embedding.json"
        save_embedding(path, emb)
        back = load_embedding(path)
        theta = np.linspace(0.0, 2.0 * np.pi, 17)
        t = np.linspace(0.0, 2.0 * np.pi, 17)
        x0, y0 = emb.evaluate(theta, t)
        x1, y1 = back.evaluate(theta, t)
        np.testing.assert_allclose(x1, x0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(y1, y0, rtol=0, atol=1e-14)
        assert back.mode == "flow" and back.r0 == emb.r0

    def test_save_is_deterministic(self, tmp_path):
        emb = small_embedding()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_embedding(a, emb)
        save_embedding(b, emb)
        assert a.read_bytes() == b.read_bytes()

    def test_parity_tamper_is_caught(self, tmp_path):
        path = tmp_path / "embedding.json"
        save_embedding(path, small_embedding())
        data = persistence.load_json(path)
        # x_offset is tagged odd: a real part on a coefficient breaks it
        entry = next(e for e in data["x_offset"]["coeffs"]
                     if abs(e["im"][0]) > 0)
        entry["re"][0] = 0.3 * abs(entry["im"][0])
        entry_conj = next(e for e in data["x_offset"]["coeffs"]
                          if e["k"] == [-entry["k"][0]] and e["l"] == -entry["l"])
        entry_conj["re"][0] = entry["re"][0]
        persistence.save_json(path, data)
        with pytest.raises(PersistenceError):
            load_embedding(path)

    def test_untagged_x_offset_leaves_the_y_check_in_place(self, tmp_path):
        x_off = fields.harmonic_field(1, 4, [1], 1, 1e-3, kind="sin")
        path = tmp_path / "embedding.json"
        save_embedding(path, small_embedding(x_off=replace(x_off, parity=None)))
        assert load_embedding(path).xy.parity == (None, "even")
        data = persistence.load_json(path)
        assert data["x_offset"]["parity"] is None
        # y is tagged even: an imaginary part on a coefficient pair breaks it
        for entry in data["y"]["coeffs"]:
            entry["im"][0] = 0.3 * entry["re"][0] * (1 if entry["k"][0] > 0 else -1)
        persistence.save_json(path, data)
        with pytest.raises(PersistenceError,
                           match=r"embedding\.json: y: .*component 0 not even"):
            load_embedding(path)

    @pytest.mark.parametrize("key,value", [("d", 0), ("m", 0), ("N", -1), ("q_y", -1)])
    def test_out_of_range_record_sizes(self, tmp_path, key, value):
        path = tmp_path / "embedding.json"
        save_embedding(path, small_embedding())
        data = persistence.load_json(path)
        data["x_offset"][key] = value
        persistence.save_json(path, data)
        with pytest.raises(PersistenceError, match=f"{key} = {value}"):
            load_embedding(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "embedding.json"
        save_embedding(path, small_embedding())
        data = persistence.load_json(path)
        data["format"] = "torus-embedding/0"
        persistence.save_json(path, data)
        with pytest.raises(PersistenceError):
            load_embedding(path)

    def test_nan_coefficients_are_written_and_rejected_on_load(self, tmp_path):
        x_off = fields.harmonic_field(1, 4, [1], 1, 1e-3, kind="sin")
        N, N_t = x_off.N, x_off.N_t
        coeffs = np.zeros_like(x_off.coeffs)
        coeffs[N, N_t] = 1.0
        coeffs[N - 1, N_t] = coeffs[N + 1, N_t] = np.nan
        diverged = small_embedding(x_off=replace(x_off, coeffs=coeffs, parity=None))
        path = tmp_path / "embedding.json"
        save_embedding(path, diverged)
        entries = persistence.load_json(path)["x_offset"]["coeffs"]
        assert [e["k"] for e in entries] == [[-1], [0], [1]]
        with pytest.raises(PersistenceError, match="non-finite"):
            load_embedding(path)
