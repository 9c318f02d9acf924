"""Affine warps, parameter sampling, and dataset balancing."""

import json

import numpy as np
import pytest

from vigil.augment import (
    ROTATION_HARD_CAP_DEG,
    AugmentationBounds,
    DatasetManifest,
    ManifestRecord,
    TransformParams,
    apply_params,
    balance,
    balance_report,
    balance_target,
    materialize,
    read_manifest_csv,
    sample_transform,
    write_manifest_csv,
)
from vigil.cli import main
from vigil.errors import ConfigError, DataError
from vigil.images import read_image, write_image
from vigil.rng import Rng

from oracles import affine_reference, warp_reference


def gradient_image(size: int = 96, amplitude: int = 60) -> np.ndarray:
    """Smooth diagonal ramp; low amplitude keeps border fill error small."""
    x = np.arange(size, dtype=float)
    ramp = (x[None, :] + x[:, None]) / (2 * (size - 1))
    return np.rint(ramp * amplitude).astype(np.uint8)


IDENTITY = TransformParams(angle_deg=0.0, shear=0.0, flip=False)


# ---------------------------------------------------------------------------
# transforms


def test_identity_transform_is_exact():
    rnd = np.random.default_rng(0)
    img = rnd.integers(0, 256, size=(17, 23, 3), dtype=np.uint8)
    assert np.array_equal(apply_params(img, IDENTITY), img)
    gray = rnd.integers(0, 256, size=(9, 9), dtype=np.uint8)
    assert np.array_equal(apply_params(gray, IDENTITY), gray)


def test_flip_twice_is_identity_bit_exact():
    rnd = np.random.default_rng(1)
    img = rnd.integers(0, 256, size=(20, 31, 3), dtype=np.uint8)
    flip = TransformParams(angle_deg=0.0, shear=0.0, flip=True)
    once = apply_params(img, flip)
    assert not np.array_equal(once, img)
    twice = apply_params(once, flip)
    assert np.array_equal(twice, img)
    # a single flip is exactly the numpy mirror
    assert np.array_equal(once, img[:, ::-1])


def test_rotation_round_trip_on_smooth_image():
    img = gradient_image()
    for angle in (10.0, -10.0, 6.5):
        fwd = apply_params(img, TransformParams(angle, 0.0, False))
        back = apply_params(fwd, TransformParams(-angle, 0.0, False))
        diff = np.abs(back.astype(float) - img.astype(float))
        assert diff.mean() < 3.0, angle


def test_rotation_moves_content():
    img = gradient_image()
    rotated = apply_params(img, TransformParams(10.0, 0.0, False))
    assert not np.array_equal(rotated, img)
    assert rotated.shape == img.shape
    assert rotated.dtype == np.uint8


def test_color_jitter_and_clip():
    img = np.full((4, 4, 3), 100, np.uint8)
    out = apply_params(img, TransformParams(0.0, 0.0, False,
                                            color_scale=1.5, color_offset=10.0))
    assert np.all(out == 160)
    hot = apply_params(img, TransformParams(0.0, 0.0, False, color_scale=3.0))
    assert np.all(hot == 255)                        # clipped
    cold = apply_params(img, TransformParams(0.0, 0.0, False,
                                             color_offset=-200.0))
    assert np.all(cold == 0)


def test_warp_matches_frozen_affine_warp_bit_for_bit():
    # apply_params against the general y = A x + B warp with optional
    # jitter that it replaced, on odd-sized gray and RGB images, with
    # color scales and offsets that push values past both clip ends
    rnd = np.random.default_rng(9)
    for case in range(48):
        h, w = (int(v) for v in 2 * rnd.integers(2, 20, size=2) + 1)
        shape = (h, w) if case % 2 else (h, w, 3)
        img = rnd.integers(0, 256, size=shape, dtype=np.uint8)
        params = TransformParams(
            angle_deg=float(rnd.uniform(-10.0, 10.0)),
            shear=float(rnd.uniform(-0.3, 0.3)),
            flip=bool(case % 4 < 2),
            color_scale=float(rnd.uniform(0.5, 1.8)),
            color_offset=float(rnd.uniform(-60.0, 60.0)))
        A, B = affine_reference(params.angle_deg, params.shear, params.flip)
        want = warp_reference(img, A, B,
                              (params.color_scale, params.color_offset))
        got = apply_params(img, params)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), params


def test_shear_keeps_rows():
    # pure horizontal shear leaves the center row in place
    img = np.zeros((9, 9), np.uint8)
    img[4, :] = 200
    out = apply_params(img, TransformParams(0.0, 0.1, False))
    assert np.array_equal(out[4], img[4])


# ---------------------------------------------------------------------------
# sampling


def test_bounds_validation():
    with pytest.raises(ConfigError):
        AugmentationBounds(max_rotation_deg=ROTATION_HARD_CAP_DEG + 0.1)
    with pytest.raises(ConfigError):
        AugmentationBounds(max_rotation_deg=-1)
    with pytest.raises(ConfigError):
        AugmentationBounds(flip_probability=1.5)
    with pytest.raises(ConfigError):
        AugmentationBounds(max_shear=-0.2)
    # shears this large once left apply_params' determinant to rounding:
    # a division by zero, or garbage images
    for shear in (1.0 + 1e-9, 1e100, 1e200, 1e300):
        with pytest.raises(ConfigError, match=r"max_shear must lie in \[0, 1.0\]"):
            AugmentationBounds(max_shear=shear)
    assert AugmentationBounds(max_shear=1.0).max_shear == 1.0  # a 45-degree slant
    with pytest.raises(ConfigError):
        AugmentationBounds(color_scale=(1.1, 0.9))
    assert AugmentationBounds().max_rotation_deg == 10.0


def test_sample_transform_respects_bounds():
    bounds = AugmentationBounds(max_rotation_deg=7.5, flip_probability=0.5,
                                max_shear=0.05, color_scale=(0.95, 1.05),
                                color_offset=(-5, 5))
    rng = Rng(99)
    flips = set()
    for _ in range(10_000):
        p = sample_transform(rng, bounds)
        assert abs(p.angle_deg) <= 7.5
        assert abs(p.shear) <= 0.05
        assert 0.95 <= p.color_scale <= 1.05
        assert -5 <= p.color_offset <= 5
        flips.add(p.flip)
    assert flips == {True, False}


def test_sample_transform_deterministic():
    bounds = AugmentationBounds()
    a = [sample_transform(Rng(5), bounds) for _ in range(1)][0]
    b = [sample_transform(Rng(5), bounds) for _ in range(1)][0]
    assert a == b


# ---------------------------------------------------------------------------
# balancing


def manifest_with_counts(counts: dict) -> DatasetManifest:
    records = []
    for label in counts:
        for i in range(counts[label]):
            records.append(ManifestRecord(f"data/{label}{i}.ppm", label))
    return DatasetManifest(records)


def test_balance_target_rounding():
    assert balance_target({"a": 10, "b": 20}) == 15
    assert balance_target({"a": 1, "b": 2}) == 2       # 1.5 rounds up
    assert balance_target({"a": 7}) == 7


def test_balance_hand_case():
    manifest = manifest_with_counts({"a": 10, "b": 20})
    out = balance(manifest, AugmentationBounds(), Rng(3))
    assert out.class_counts() == {"a": 15, "b": 15}
    report = balance_report(manifest, out)
    assert report == {
        "a": {"before": 10, "after": 15, "generated": 5, "dropped": 0},
        "b": {"before": 20, "after": 15, "generated": 0, "dropped": 5},
    }
    # augmented names derive from their source with a serial suffix
    fresh = [r for r in out.records if r.augmented]
    assert len(fresh) == 5
    for rec in fresh:
        assert "__aug" in rec.path and rec.path.endswith(".ppm")
        assert rec.source_path is not None and rec.params is not None
    # retained originals stay in manifest order
    kept_b = [r.path for r in out.records if r.class_label == "b"]
    original_b = [r.path for r in manifest.records if r.class_label == "b"]
    assert kept_b == [p for p in original_b if p in set(kept_b)]


def test_balance_deterministic():
    a = balance(manifest_with_counts({"x": 3, "y": 9}),
                AugmentationBounds(), Rng(42))
    b = balance(manifest_with_counts({"x": 3, "y": 9}),
                AugmentationBounds(), Rng(42))
    assert [(r.path, r.class_label, r.params) for r in a.records] == \
        [(r.path, r.class_label, r.params) for r in b.records]


def test_balance_already_balanced_is_identity():
    manifest = manifest_with_counts({"a": 4, "b": 4})
    out = balance(manifest, AugmentationBounds(), Rng(1))
    assert [r.path for r in out.records] == [r.path for r in manifest.records]
    assert not any(r.augmented for r in out.records)


def test_balance_out_dir_redirects_augmented_files(tmp_path):
    manifest = manifest_with_counts({"a": 1, "b": 3})
    out = balance(manifest, AugmentationBounds(), Rng(7),
                  out_dir=str(tmp_path))
    fresh = [r for r in out.records if r.augmented]
    assert fresh and all(r.path.startswith(str(tmp_path)) for r in fresh)


def test_balance_empty_manifest_rejected():
    with pytest.raises(DataError):
        balance(DatasetManifest([]), AugmentationBounds(), Rng(0))


def test_manifest_csv_round_trip(tmp_path):
    manifest = manifest_with_counts({"cat": 2, "dog": 1})
    path = tmp_path / "manifest.csv"
    write_manifest_csv(path, manifest)
    back = read_manifest_csv(path)
    assert [(r.path, r.class_label) for r in back.records] == \
        [(r.path, r.class_label) for r in manifest.records]
    assert path.read_text().splitlines()[0] == "path,class"


def test_manifest_rejects_duplicates_and_junk(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("path,class\na.ppm,x\na.ppm,y\n")
    with pytest.raises(DataError):
        read_manifest_csv(dup)
    short = tmp_path / "short.csv"
    short.write_text("a.ppm\n")
    with pytest.raises(DataError):
        read_manifest_csv(short)
    unlabelled = tmp_path / "unlabelled.csv"
    unlabelled.write_text("path,class\na.ppm,x\nb.ppm, \n")
    with pytest.raises(DataError, match="row 3: empty path or class"):
        read_manifest_csv(unlabelled)


def test_augment_exits_3_when_an_augmented_name_is_a_listed_path(tmp_path, capsys):
    # x.ppm's first augmented copy would be o/x__aug000.ppm, a path the
    # manifest already lists.  Class a gets two copies (7 images over 2
    # classes make a target of 4), and unless both come from x__aug000.ppm,
    # one of them is x.ppm's first
    out = tmp_path / "o"
    rows = [f"{out / 'x.ppm'},a", f"{out / 'x__aug000.ppm'},a"] + [f"b{i}.ppm,b" for i in range(5)]
    (tmp_path / "manifest.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "job.json").write_text(json.dumps({"manifest_csv": "manifest.csv"}))
    for seed in range(3):
        assert main(["augment", "--config", str(tmp_path / "job.json"), "--out", str(out),
                     "--seed", str(seed), "--quiet"]) == 3, seed
        assert capsys.readouterr().err == (
            "data error: augmented file names collide with existing paths\n")


def test_materialize_writes_augmented_images(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    records = []
    for i in range(2):
        p = str(src_dir / f"a{i}.ppm")
        write_image(p, gradient_image(24)[:, :, None].repeat(3, axis=2))
        records.append(ManifestRecord(p, "a"))
    for i in range(5):
        p = str(src_dir / f"b{i}.ppm")
        write_image(p, np.full((24, 24, 3), 60 + i, np.uint8))
        records.append(ManifestRecord(p, "b"))

    out = balance(DatasetManifest(records), AugmentationBounds(), Rng(11),
                  out_dir=str(tmp_path / "aug"))
    (tmp_path / "aug").mkdir()
    n = materialize(out)
    fresh = [r for r in out.records if r.augmented]
    assert n == len(fresh) > 0
    for rec in fresh:
        img = read_image(rec.path)
        assert img.shape == (24, 24, 3)
