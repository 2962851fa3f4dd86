import copy
import dataclasses
import errno
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.calibrate import identity_calibrator
from aisoc.cli import main as cli_main
from aisoc.corpus import EPOCH_MS
from aisoc.errors import ArtifactError
from aisoc.features import Standardizer
from aisoc.fusion import FusionConfig
from aisoc.learn import ForestModel, train_forest
from aisoc.learn.forest import node_lists_of_nested
from aisoc.pipeline import ExperimentConfig, calibrate_detectors, run_experiment
from aisoc.service import artifact as artifact_module
from aisoc.service import ModelArtifact, load_artifact, save_artifact
from aisoc.service.artifact import (FORMAT_VERSION, PAIR_COMPONENTS, PARTIAL, SERVING,
                                    canonical_json_bytes, checksum_of)

# Written by the last commit that stored trees as nested node objects:
# ``run_experiment(ExperimentConfig(seed=7, forest_trees=3))``, then ``save_artifact``.
FORMAT_1 = Path(__file__).parent / "data" / "artifact_format1_seed7_3trees.json"


class TestRoundTrip:
    def test_save_load_preserves_scores_exactly(self, tmp_path, demo_result):
        path = tmp_path / "artifact.json"
        save_artifact(demo_result.artifact, path)
        loaded = load_artifact(path)
        scorer_a = demo_result.artifact.to_scorer()
        scorer_b = loaded.to_scorer()
        for item in demo_result.test_items[:40]:
            assert scorer_a.score_log(item.log.message) \
                == scorer_b.score_log(item.log.message)
            assert scorer_a.score_malware(item.malware.features) \
                == scorer_b.score_malware(item.malware.features)

    def test_save_load_save_is_byte_identical(self, tmp_path, demo_result):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_artifact(demo_result.artifact, first)
        save_artifact(load_artifact(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_checksum_returned_matches_loaded_version(self, tmp_path, demo_result):
        path = tmp_path / "artifact.json"
        checksum = save_artifact(demo_result.artifact, path)
        assert checksum.startswith("sha256:")
        assert load_artifact(path).version == checksum.split(":")[1][:12]

    def test_fusion_thresholds_exposed_verbatim(self, tmp_path, demo_result):
        artifact = dataclasses.replace(demo_result.artifact, fusion=FusionConfig(
            t_m=0.10, t_l=0.42, grid_step=0.01, tuned_on="validation", version="1"))
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        loaded = load_artifact(path)
        assert loaded.fusion.t_m == 0.10
        assert loaded.fusion.t_l == 0.42


class TestCorruption:
    def test_truncated_file_fails_verification(self, tmp_path, demo_result):
        path = tmp_path / "artifact.json"
        save_artifact(demo_result.artifact, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactError, match="checksum|truncated|corrupt"):
            load_artifact(path)

    def test_bit_flip_fails_checksum(self, tmp_path, demo_result):
        path = tmp_path / "artifact.json"
        save_artifact(demo_result.artifact, path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["created_at"] += 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(ArtifactError, match="checksum"):
            load_artifact(path)

    def test_unknown_format_version(self, tmp_path, demo_result):
        path = tmp_path / "artifact.json"
        save_artifact(demo_result.artifact, path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["format_version"] = "99"
        from aisoc.service.artifact import checksum_of
        envelope["checksum"] = checksum_of(envelope["payload"])
        path.write_text(json.dumps(envelope))
        with pytest.raises(ArtifactError, match="format_version"):
            load_artifact(path)

    def test_serving_payload_missing_component_is_named(self, tmp_path, demo_result):
        path = tmp_path / "artifact.json"
        save_artifact(demo_result.artifact, path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["forest"] = None  # claims SERVING but lacks the forest
        from aisoc.service.artifact import checksum_of
        envelope["checksum"] = checksum_of(envelope["payload"])
        path.write_text(json.dumps(envelope))
        with pytest.raises(ArtifactError, match="forest"):
            load_artifact(path)

    def test_not_json_at_all(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01\x02 not an artifact")
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "absent.json")


class TestPartialArtifacts:
    def test_partial_roundtrip_and_refusal_to_score(self, tmp_path, demo_result):
        partial = ModelArtifact(vocabulary=demo_result.artifact.vocabulary,
                                logistic=demo_result.artifact.logistic,
                                created_at=0)
        assert partial.status == PARTIAL
        path = tmp_path / "partial.json"
        save_artifact(partial, path)
        loaded = load_artifact(path)
        assert loaded.status == PARTIAL
        with pytest.raises(ArtifactError, match="forest"):
            loaded.to_scorer()

    def test_complete_artifact_is_serving(self, demo_result):
        assert demo_result.artifact.status == SERVING
        assert demo_result.artifact.missing_components() == []

    def test_created_at_wall_clock_default(self):
        artifact = ModelArtifact()
        assert artifact.created_at > 0


class TestImmutableValue:
    def test_an_artifact_is_a_value(self):
        artifact = ModelArtifact(created_at=0, fingerprints={"seed": "7"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            artifact.created_at = 1
        with pytest.raises(TypeError):
            artifact.fingerprints["seed"] = "8"
        before = artifact.checksum
        later = dataclasses.replace(artifact, fingerprints={**artifact.fingerprints, "seed": "8"})
        assert later.checksum != before
        assert artifact.checksum == checksum_of(artifact.to_payload()) == before
        assert artifact.fingerprints == {"seed": "7"} and later.fingerprints == {"seed": "8"}

    def test_a_list_in_the_fingerprints_loads_as_a_tuple(self, tmp_path):
        payload = {**ModelArtifact(created_at=EPOCH_MS).to_payload(),
                   "fingerprints": {"ports": [22, 443], "seed": "7"}}
        path, again = tmp_path / "a.json", tmp_path / "b.json"
        path.write_bytes(canonical_json_bytes({"checksum": checksum_of(payload),
                                               "payload": payload}) + b"\n")
        loaded = load_artifact(path)
        assert loaded.fingerprints["ports"] == (22, 443)
        with pytest.raises(AttributeError):
            loaded.fingerprints["ports"].append(8080)
        version = loaded.version
        save_artifact(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert loaded.version == version == _payload_version(path)

    def test_fingerprints_are_frozen_at_every_depth(self, tmp_path):
        fingerprints = {"x": {"a": 1}, "y": [[1]]}
        artifact = ModelArtifact(created_at=0, fingerprints=fingerprints)
        version = artifact.version
        first, again = tmp_path / "a.json", tmp_path / "b.json"
        save_artifact(artifact, first)
        loaded = load_artifact(first)
        for held in (artifact, loaded):
            with pytest.raises(TypeError):
                held.fingerprints["x"]["a"] = 2
            with pytest.raises(AttributeError):
                held.fingerprints["y"][0].append(5)
            assert held.fingerprints["y"] == ((1,),)
            assert held.version == version == ModelArtifact(created_at=0,
                                                            fingerprints=fingerprints).version
        assert (artifact.checksum == checksum_of(artifact.to_payload())
                == checksum_of({**artifact.to_payload(), "fingerprints": fingerprints}))
        save_artifact(loaded, again)
        assert again.read_bytes() == first.read_bytes()

    def test_version_then_scorer_hash_the_payload_once(self, demo_result, monkeypatch, encodes):
        artifact = _fresh(demo_result.artifact)  # a new value of new components, not hashed yet
        expected = demo_result.artifact.version
        encodes.clear()  # what hashing ``expected`` encoded, when no earlier test had
        calls = []
        original = artifact_module._checksum

        def counting(chunks):
            calls.append(1)
            return original(chunks)

        monkeypatch.setattr(artifact_module, "_checksum", counting)
        version = artifact.version
        assert artifact.to_scorer().version == version == expected
        assert len(calls) == 1
        assert _sorted_bytes(encodes) == _payload_parts(artifact.to_payload())

    def test_component_arrays_are_read_only(self, tmp_path, demo_result):
        path = tmp_path / "artifact.json"
        save_artifact(demo_result.artifact, path)
        loaded = load_artifact(path)  # edited below, so not the shared session artifact
        version = loaded.version
        with pytest.raises(ValueError, match="read-only"):
            loaded.logistic.weights[0] += 1.0
        assert checksum_of(loaded.to_payload()) == loaded.checksum and loaded.version == version
        for artifact in (demo_result.artifact, loaded):
            forest = artifact.forest
            arrays = [artifact.vocabulary.idf, artifact.logistic.weights,
                      artifact.standardizer.mean, artifact.standardizer.std, forest.feature,
                      forest.threshold, forest.left, forest.right, forest.negatives,
                      forest.positives, forest.tree_sizes]
            for calibrator in (artifact.calibrator_logs, artifact.calibrator_malware):
                arrays += [knots for knots in (calibrator.knot_scores, calibrator.knot_values)
                           if knots is not None]
            assert not any(array.flags.writeable for array in arrays)

    def test_components_refuse_field_assignment(self, tmp_path, demo_result):
        path = tmp_path / "artifact.json"
        save_artifact(demo_result.artifact, path)
        loaded = load_artifact(path)
        version = loaded.version
        edits = [(loaded.vocabulary, "document_count", 1), (loaded.logistic, "bias", 0.0),
                 (loaded.calibrator_logs, "knot_values", None), (loaded.standardizer, "std", None),
                 (loaded.forest, "max_depth", 3), (loaded.calibrator_malware, "a", 1.0)]
        for component, name, value in edits:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(component, name, value)
        assert checksum_of(loaded.to_payload()) == loaded.checksum and loaded.version == version

    def test_component_dicts_are_read_only(self, tmp_path, demo_result):
        path = tmp_path / "artifact.json"
        save_artifact(demo_result.artifact, path)
        loaded = load_artifact(path)
        version = loaded.version
        for artifact in (demo_result.artifact, loaded):
            mappings = [artifact.vocabulary.index, artifact.vocabulary.config,
                        artifact.logistic.training_meta, artifact.forest.training_meta,
                        artifact.calibrator_logs.fit_meta, artifact.calibrator_malware.fit_meta]
            for mapping in mappings:
                key = next(iter(mapping))
                with pytest.raises(TypeError):
                    mapping[key] = 0
                with pytest.raises(TypeError):
                    del mapping[key]
            assert isinstance(artifact.calibrator_malware.fit_meta["targets"], tuple)  # Platt
        assert checksum_of(loaded.to_payload()) == loaded.checksum and loaded.version == version
        assert loaded.version == demo_result.artifact.version

    def test_calibrating_clears_the_thresholds_tuned_on_the_old_calibrators(self, demo_result):
        tuned = demo_result.artifact
        calibrated = calibrate_detectors(tuned, demo_result.log_split.validation,
                                         demo_result.malware_split.validation, "auto")
        assert calibrated.fusion is None and calibrated.status == PARTIAL
        for name in ("calibrator_logs", "calibrator_malware"):
            assert getattr(calibrated, name).to_dict() == getattr(tuned, name).to_dict()
        assert tuned.fusion is demo_result.fusion_config
        assert checksum_of(tuned.to_payload()) == tuned.checksum

    def test_calibrating_needs_both_detectors(self, demo_result):
        log_only = ModelArtifact(vocabulary=demo_result.artifact.vocabulary,
                                 logistic=demo_result.artifact.logistic)
        with pytest.raises(ArtifactError, match="missing components: standardizer, forest$"):
            calibrate_detectors(log_only, demo_result.log_split.validation,
                                demo_result.malware_split.validation, "auto")


class TestSelfDescription:
    """A payload is refused when its own fields misdescribe it, checksum or not."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory, demo_result):
        path = tmp_path_factory.mktemp("described") / "artifact.json"
        save_artifact(demo_result.artifact, path)
        return json.loads(path.read_text())["payload"]

    def test_unknown_key_is_refused(self, tmp_path, payload):
        _write(tmp_path / "a.json", {**payload, "comment": "hand-edited"})
        with pytest.raises(ArtifactError, match=r"key\(s\) \['comment'\] differ"):
            load_artifact(tmp_path / "a.json")

    def test_missing_key_is_refused(self, tmp_path, payload):
        broken = {key: value for key, value in payload.items() if key != "status"}
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match=r"key\(s\) \['status'\] differ"):
            load_artifact(tmp_path / "a.json")

    @pytest.mark.parametrize("created_at", ["1735689600000", 5.0, True, None])
    def test_created_at_that_is_not_an_integer_is_refused(self, tmp_path, payload, created_at):
        _write(tmp_path / "a.json", {**payload, "created_at": created_at})
        with pytest.raises(ArtifactError, match="created_at must be an integer"):
            load_artifact(tmp_path / "a.json")

    @pytest.mark.parametrize("status", ["READY", "serving", None])
    def test_unknown_status_is_refused(self, tmp_path, payload, status):
        _write(tmp_path / "a.json", {**payload, "status": status})
        with pytest.raises(ArtifactError, match=r"key\(s\) \['status'\] differ"):
            load_artifact(tmp_path / "a.json")

    def test_partial_status_with_every_component_is_refused(self, tmp_path, payload):
        _write(tmp_path / "a.json", {**payload, "status": PARTIAL})
        with pytest.raises(ArtifactError,
                           match=r"key\(s\) \['status'\] differ; "
                                 "missing components: none"):
            load_artifact(tmp_path / "a.json")


def _write(path, payload, checksum=None) -> None:
    if checksum is None:
        checksum = checksum_of(payload)
    path.write_text(json.dumps({"checksum": checksum, "payload": payload}))


@pytest.fixture
def encodes(monkeypatch):
    """Each object the artifact module encodes with ``canonical_json_bytes``, in order."""
    calls = []
    original = artifact_module.canonical_json_bytes

    def recording(obj):
        calls.append(obj)
        return original(obj)

    monkeypatch.setattr(artifact_module, "canonical_json_bytes", recording)
    return calls


def _sorted_bytes(objects) -> list[bytes]:
    return sorted(map(canonical_json_bytes, objects))


def _payload_parts(payload) -> list[bytes]:
    """The canonical bytes of each part of a SERVING payload that a load, or a
    save of new components, encodes once: each top-level value but the
    calibrators and the forest, each calibrator, each forest field but the
    trees, and each tree."""
    forest = payload["forest"]
    parts = [value for key, value in payload.items() if key not in ("calibrators", "forest")]
    parts += [*payload["calibrators"].values(),
              *(value for key, value in forest.items() if key != "trees"), *forest["trees"]]
    return _sorted_bytes(parts)


def _fresh(artifact) -> ModelArtifact:
    """``artifact`` with each component rebuilt from its fields, so none is encoded yet."""
    return dataclasses.replace(artifact, **{
        name: dataclasses.replace(getattr(artifact, name)) for name in (*PAIR_COMPONENTS, "fusion")
        if getattr(artifact, name) is not None})


def _spliced(artifact) -> bytes:
    return b"".join(artifact.payload_chunks())


def _payload_version(path) -> str:
    """The first 12 hex digits of the sha256 of a saved file's payload bytes."""
    raw = path.read_bytes()
    start = raw.index(b'"payload":') + len(b'"payload":')
    assert raw.endswith(b"}\n")
    return hashlib.sha256(raw[start:-2]).hexdigest()[:12]


def _split_nodes(forest_payload) -> list[tuple[dict, int]]:
    """(tree, node id) of every split node of a format-2 forest payload."""
    return [(tree, i) for tree in forest_payload["trees"]
            for i, feature in enumerate(tree["feature"]) if feature != -1]


def _nested_split_nodes(forest_payload) -> list[dict]:
    """Every split node object of a format-1 forest payload."""
    nodes, stack = [], list(forest_payload["trees"])
    while stack:
        node = stack.pop()
        if "feature" in node:
            nodes.append(node)
            stack.extend((node["left"], node["right"]))
    return nodes


def _tree_lists(splits: list) -> dict:
    """Node lists from ``[node, left, right]`` splits; every other node up to
    the largest id is a leaf."""
    size = 1 + max(max(split) for split in splits)
    lists = {"feature": [-1] * size, "threshold": [0.0] * size, "left": [-1] * size,
             "right": [-1] * size, "negatives": [1] * size, "positives": [1] * size}
    for node, left, right in splits:
        lists["feature"][node], lists["left"][node], lists["right"][node] = 0, left, right
    return lists


def _resize(values: list, delta: int) -> list:
    return values[:delta] if delta < 0 else values + values[:delta]


# Each mutation edits one field of a SERVING payload in place; ``k`` picks
# how far or where. Every result must be refused at load.
def _mutate_weights_length(p, k):
    p["logistic"]["weights"] = _resize(p["logistic"]["weights"], -1 - k % 300)


def _mutate_idf_length(p, k):
    p["vocabulary"]["idf"] = _resize(p["vocabulary"]["idf"], 1 + k % 5)


def _mutate_standardizer_dim(p, k):
    std = p["standardizer"]
    delta = (1 + k % 3) * (1 if k % 2 else -1)
    std["mean"], std["std"] = _resize(std["mean"], delta), _resize(std["std"], delta)


def _bad_feature(p, k):
    n = p["forest"]["n_features"]
    return n + k % 4 if k % 2 else -2 - k % 4


def _mutate_tree_feature(p, k):
    tree, i = _split_nodes(p["forest"])[k % len(_split_nodes(p["forest"]))]
    tree["feature"][i] = _bad_feature(p, k)


def _mutate_tree_child(p, k):
    """Point a child at its parent or before it, past its tree, or at its
    sibling (which then has two parents), or give a leaf a child."""
    splits = _split_nodes(p["forest"])
    tree, i = splits[k % len(splits)]
    side, other = ("left", "right") if k % 2 else ("right", "left")
    choice = k % 6
    if choice == 5:
        leaf = tree["feature"].index(-1)
        tree[side][leaf] = leaf + 1
    else:
        tree[side][i] = [i, i // 2, len(tree["feature"]), tree[other][i], -1 - k % 3][choice]


def _mutate_tree_count(p, k):
    forest = p["forest"]
    if k % 3 == 0:
        forest["trees"] = []
    elif k % 3 == 1:
        forest["trees"] = forest["trees"][:-1]
    else:
        forest["n_trees"] += 1 + k % 5


def _mutate_class_count(p, k):
    trees = p["forest"]["trees"]
    tree = trees[k % len(trees)]
    tree["negatives" if k % 2 else "positives"][k % len(tree["feature"])] = -1 - k % 9


def _mutate_knot_order(p, k):
    knots = p["calibrators"]["logs"]["knot_scores"]
    i = k % (len(knots) - 1)
    knots[i], knots[i + 1] = knots[i + 1], knots[i]


def _mutate_knot_value(p, k):
    values = p["calibrators"]["logs"]["knot_values"]
    values[k % len(values)] = [1.5, -0.25, "nan", "inf"][k % 4]


def _mutate_platt(p, k):
    p["calibrators"]["malware"]["ab"[k % 2]] = ["nan", "inf", "-inf"][k % 3]


def _mutate_weight_value(p, k):
    weights = p["logistic"]["weights"]
    weights[k % len(weights)] = "nan"


MUTATIONS = [_mutate_weights_length, _mutate_idf_length, _mutate_standardizer_dim,
             _mutate_tree_feature, _mutate_tree_child, _mutate_tree_count, _mutate_class_count,
             _mutate_knot_order, _mutate_knot_value, _mutate_platt, _mutate_weight_value]


# The forest mutations above, on the nested nodes of a format-1 payload.
def _mutate_nested_feature(p, k):
    nodes = _nested_split_nodes(p["forest"])
    nodes[k % len(nodes)]["feature"] = _bad_feature(p, k)


def _mutate_nested_counts(p, k):
    nodes = _nested_split_nodes(p["forest"])
    nodes[k % len(nodes)]["left"]["counts"][k % 2] = -1 - k % 9


FORMAT_1_MUTATIONS = [_mutate_nested_feature, _mutate_tree_count, _mutate_nested_counts]


class TestConsistency:
    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory, demo_result):
        path = tmp_path_factory.mktemp("consistency") / "artifact.json"
        save_artifact(demo_result.artifact, path)
        payload = json.loads(path.read_text())["payload"]
        assert payload["calibrators"]["logs"]["method"] == "ISOTONIC"
        assert payload["calibrators"]["malware"]["method"] == "PLATT"
        return payload

    def test_five_weights_for_the_vocabulary_is_refused(self, tmp_path, payload):
        broken = copy.deepcopy(payload)
        broken["logistic"]["weights"] = broken["logistic"]["weights"][:5]
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match="5 logistic weights for 334"):
            load_artifact(tmp_path / "a.json")

    @settings(max_examples=60, deadline=None)
    @given(mutation=st.sampled_from(MUTATIONS), k=st.integers(0, 10_000))
    def test_mutated_field_is_refused_not_served(self, tmp_path_factory, payload, mutation, k):
        broken = copy.deepcopy(payload)
        mutation(broken, k)
        path = tmp_path_factory.mktemp("mutated") / "a.json"
        _write(path, broken)
        assert broken["status"] == SERVING
        with pytest.raises(ArtifactError, match="inconsistent artifact"):
            load_artifact(path)

    @pytest.mark.parametrize("idf", [lambda v: -v, lambda v: 0.0], ids=["negated", "zero"])
    def test_idf_weight_not_positive_is_refused(self, tmp_path, payload, demo_result, idf):
        # a negated idf flips every log score; an all-zero row divides 0 by 0
        broken = copy.deepcopy(payload)
        broken["vocabulary"]["idf"] = [idf(v) for v in broken["vocabulary"]["idf"]]
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match="inconsistent artifact: vocabulary idf holds "
                                                "a weight <= 0"):
            load_artifact(tmp_path / "a.json")
        vocab = demo_result.artifact.vocabulary
        artifact = dataclasses.replace(demo_result.artifact, vocabulary=dataclasses.replace(
            vocab, idf=np.array([idf(v) for v in vocab.idf])))
        with pytest.raises(ArtifactError, match="not saved, inconsistent artifact: vocabulary idf"):
            save_artifact(artifact, tmp_path / "b.json")
        assert not (tmp_path / "b.json").exists()

    def test_negative_standardizer_scale_is_refused(self, tmp_path, payload, demo_result):
        broken = copy.deepcopy(payload)
        broken["standardizer"]["std"] = [-v for v in broken["standardizer"]["std"]]
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match="inconsistent artifact: standardizer std holds "
                                                "a negative scale"):
            load_artifact(tmp_path / "a.json")
        std = demo_result.artifact.standardizer
        artifact = dataclasses.replace(demo_result.artifact,
                                       standardizer=dataclasses.replace(std, std=-std.std))
        with pytest.raises(ArtifactError, match="not saved, inconsistent artifact: standardizer"):
            save_artifact(artifact, tmp_path / "b.json")
        assert not (tmp_path / "b.json").exists()

    def test_json_nan_is_an_artifact_error(self, tmp_path, payload):
        broken = copy.deepcopy(payload)
        broken["calibrators"]["malware"]["a"] = float("nan")
        loose = json.dumps(broken, sort_keys=True, separators=(",", ":")).encode()
        _write(tmp_path / "a.json", broken, "sha256:" + hashlib.sha256(loose).hexdigest())
        with pytest.raises(ArtifactError, match="non-finite"):
            load_artifact(tmp_path / "a.json")

    def test_deeply_nested_tree_is_an_artifact_error(self, tmp_path):
        tree = '{"counts":[1,1]}'
        for _ in range(5000):
            tree = f'{{"counts":[1,1],"feature":0,"left":{tree},"right":{{"counts":[1,0]}}}}'
        (tmp_path / "a.json").write_text(
            f'{{"checksum":"sha256:0","payload":{{"forest":{{"trees":[{tree}]}}}}}}')
        with pytest.raises(ArtifactError, match="not a valid artifact container"):
            load_artifact(tmp_path / "a.json")

    def test_non_object_payload_is_an_artifact_error(self, tmp_path):
        _write(tmp_path / "a.json", [1, 2], checksum="sha256:0")
        with pytest.raises(ArtifactError, match="not an artifact container"):
            load_artifact(tmp_path / "a.json")

    def test_payload_too_deep_to_encode_again_is_an_artifact_error(self, tmp_path):
        # json.loads parses somewhat deeper than json.dumps can encode from
        # inside load_artifact; every depth around that edge must be refused
        for depth in range(900, 1000):
            (tmp_path / "a.json").write_text(
                '{"checksum":"sha256:0","payload":{"a":' + "[" * depth + "]" * depth + "}}")
            with pytest.raises(ArtifactError):
                load_artifact(tmp_path / "a.json")

    @pytest.mark.parametrize("edit, match", [
        (lambda forest: forest.update(trees=[]), "forest declares 30 trees and holds 0"),
        (lambda forest: forest.update(n_trees=31), "forest declares 31 trees and holds 30"),
        (lambda forest: forest["trees"][4]["positives"].__setitem__(2, -3),
         "forest holds a negative class count"),
    ], ids=["no-trees", "n-trees", "negative-count"])
    def test_forest_that_cannot_score_is_refused(self, tmp_path, payload, edit, match):
        broken = copy.deepcopy(payload)
        edit(broken["forest"])
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match=f"inconsistent artifact: {match}"):
            load_artifact(tmp_path / "a.json")

    @pytest.mark.parametrize("edit", [
        lambda tree, i: tree["left"].__setitem__(i, i),
        lambda tree, i: tree["right"].__setitem__(i, 0),
        lambda tree, i: tree["right"].__setitem__(i, len(tree["feature"])),
        lambda tree, i: tree["left"].__setitem__(i, -2),
        lambda tree, i: tree["left"].__setitem__(i, tree["right"][i]),
        lambda tree, i: tree["right"].__setitem__(tree["feature"].index(-1), 1),
        lambda tree, i: tree.update(_tree_lists([[0, 1, 2], [3, 3, 4]])),
        lambda tree, i: tree.update(_tree_lists([[0, 3, 4], [1, 2, 5], [2, 1, 6]])),
    ], ids=["child-is-parent", "child-is-root", "child-past-last-tree", "child-negative",
            "child-twice", "leaf-with-child", "detached-self-loop", "detached-cycle"])
    def test_node_lists_that_are_not_trees_are_refused(self, tmp_path, payload, edit):
        broken = copy.deepcopy(payload)
        last = broken["forest"]["trees"][-1]
        edit(last, [i for i, f in enumerate(last["feature"]) if f != -1][1])  # a non-root split
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match="inconsistent artifact: forest has a "):
            load_artifact(tmp_path / "a.json")

    def test_forest_of_no_trees_is_refused(self, tmp_path, payload):
        broken = copy.deepcopy(payload)
        broken["forest"].update(trees=[], n_trees=0)
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match="forest declares 0 trees and holds 0"):
            load_artifact(tmp_path / "a.json")

    def test_tree_lists_of_unequal_length_are_refused(self, tmp_path, payload):
        broken = copy.deepcopy(payload)
        broken["forest"]["trees"][3]["threshold"].pop()
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match="tree 3 has node lists of unequal lengths"):
            load_artifact(tmp_path / "a.json")


class TestComponentPayloads:
    """A component field that would not be written back as stored is refused."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory, demo_result):
        path = tmp_path_factory.mktemp("components") / "artifact.json"
        save_artifact(demo_result.artifact, path)
        return json.loads(path.read_text())["payload"]

    @pytest.mark.parametrize("name, value", [
        ("max_depth", 10.0), ("max_depth", 10.5), ("max_depth", 0), ("min_samples_leaf", -3),
        ("features_per_split", True), ("n_features", "8"), ("seed", -1), ("n_features", 0),
    ], ids=["float", "fraction", "zero", "negative", "bool", "string", "negative-seed",
            "no-features"])
    def test_forest_integer_field_outside_training_bounds_is_refused(self, tmp_path, payload,
                                                                     demo_result, name, value):
        broken = copy.deepcopy(payload)
        broken["forest"][name] = value
        _write(tmp_path / "a.json", broken)
        problem = f"forest {name} must be an integer >= [01], got {value!r}"
        with pytest.raises(ArtifactError, match=f"malformed component payload: {problem}"):
            load_artifact(tmp_path / "a.json")
        artifact = dataclasses.replace(demo_result.artifact, forest=dataclasses.replace(
            demo_result.artifact.forest, **{name: value}))
        with pytest.raises(ArtifactError, match=f"not saved, inconsistent artifact: .*{problem}"):
            save_artifact(artifact, tmp_path / "b.json")
        assert not (tmp_path / "b.json").exists()

    def test_non_integer_n_features_is_the_only_problem_beside_a_standardizer(self, tmp_path):
        forest = train_forest([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [0, 1, 0, 1],
                              n_trees=2, min_samples_leaf=1)
        artifact = ModelArtifact(standardizer=Standardizer(mean=np.zeros(2), std=np.ones(2)),
                                 forest=dataclasses.replace(forest, n_features="2"), created_at=0)
        path = tmp_path / "a.json"
        with pytest.raises(ArtifactError, match=f"^{re.escape(str(path))}: not saved, inconsistent "
                                                "artifact: forest n_features must be an integer "
                                                ">= 1, got '2'$"):
            save_artifact(artifact, path)
        assert sorted(tmp_path.iterdir()) == []

    def test_fusion_with_an_unknown_key_is_refused(self, tmp_path, payload):
        broken = copy.deepcopy(payload)
        broken["fusion"]["note"] = "hand-edited"
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match="malformed component payload: "
                                                ".*unexpected keyword argument 'note'"):
            load_artifact(tmp_path / "a.json")

    def test_fusion_without_its_version_is_refused(self, tmp_path, payload):
        broken = copy.deepcopy(payload)
        del broken["fusion"]["version"]
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match=r"key\(s\) \['fusion'\] differ"):
            load_artifact(tmp_path / "a.json")


def _integral_knots_as_ints(p):
    values = p["calibrators"]["logs"]["knot_values"]
    values[:] = [int(v) if v in (0.0, 1.0) else v for v in values]


class TestOneLoadRule:
    """A format-2 file loads only as the artifact it is the canonical encoding
    of, so ``version`` is the hash of its payload bytes."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory, demo_result):
        path = tmp_path_factory.mktemp("rule") / "artifact.json"
        save_artifact(demo_result.artifact, path)
        return path

    def test_load_and_save_each_encode_the_payload_once(self, tmp_path, saved, demo_result,
                                                        encodes):
        parts = _payload_parts(json.loads(saved.read_text())["payload"])
        assert load_artifact(saved).version == _payload_version(saved)
        assert _sorted_bytes(encodes) == parts
        encodes.clear()
        fresh = _fresh(demo_result.artifact)  # no component encoded yet
        save_artifact(fresh, tmp_path / "a.json")
        assert fresh.version == _payload_version(tmp_path / "a.json") == _payload_version(saved)
        assert _sorted_bytes(encodes) == parts

    def test_a_fresh_save_encodes_each_tree_once(self, tmp_path, demo_result, encodes):
        fresh = _fresh(demo_result.artifact)
        save_artifact(fresh, tmp_path / "a.json")
        trees = [obj for obj in encodes if isinstance(obj, dict) and "feature" in obj]
        assert trees == list(fresh.forest.tree_dicts())
        encodes.clear()
        save_artifact(fresh, tmp_path / "b.json")  # the same value again: no component
        assert _sorted_bytes(encodes) == _sorted_bytes(
            [FORMAT_VERSION, fresh.created_at, SERVING, dict(fresh.fingerprints)])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_a_save_of_a_new_fusion_encodes_no_tree(self, tmp_path, saved, encodes):
        loaded = load_artifact(saved)
        encodes.clear()
        tuned = dataclasses.replace(loaded, fusion=FusionConfig(t_m=0.25, t_l=0.5))
        save_artifact(tuned, tmp_path / "a.json")
        assert _sorted_bytes(encodes) == _sorted_bytes(
            [FORMAT_VERSION, tuned.created_at, SERVING, tuned.fusion.to_dict(),
             dict(tuned.fingerprints)])
        envelope = {"checksum": tuned.checksum, "payload": tuned.to_payload()}
        assert (tmp_path / "a.json").read_bytes() == canonical_json_bytes(envelope) + b"\n"
        assert load_artifact(tmp_path / "a.json").version == tuned.version != loaded.version

    def test_a_payload_too_deep_to_encode_again_is_refused(self, tmp_path):
        # the range straddles the depth that json.loads parses and the
        # re-encode of the loaded artifact cannot reach
        payload = ModelArtifact(created_at=EPOCH_MS).to_payload()
        seen = set()
        for depth in range(850, 1000):
            nested = "[" * depth + "]" * depth
            text = json.dumps({**payload, "fingerprints": {"x": "@"}}).replace('"@"', nested)
            (tmp_path / "a.json").write_text(f'{{"checksum":"sha256:0","payload":{text}}}')
            with pytest.raises(ArtifactError) as refused:
                load_artifact(tmp_path / "a.json")
            seen.add(str(refused.value).split(": ")[1])
        assert "payload has no canonical encoding" in seen

    @pytest.mark.parametrize("which", ["run_experiment", "empty"])
    def test_version_is_the_hash_of_the_payload_bytes(self, tmp_path, demo_result, which):
        artifact = (demo_result.artifact if which == "run_experiment"
                    else ModelArtifact(created_at=EPOCH_MS))
        path = tmp_path / "a.json"
        save_artifact(artifact, path)
        assert artifact.version == load_artifact(path).version == _payload_version(path)

    def test_every_cli_stage_writes_its_payload_hash_as_version(self, tmp_path):
        logs, malware, splits = tmp_path / "logs.ndjson", tmp_path / "malware.csv", tmp_path / "s"
        artifact = tmp_path / "artifact.json"
        assert cli_main(["generate", "--out-logs", str(logs), "--out-malware", str(malware),
                         "--attack-sessions", "4", "--duration-s", "600", "--malware-benign",
                         "60", "--malware-malicious", "60", "--seed", "7"]) == 0
        assert cli_main(["split", "--logs", str(logs), "--malware", str(malware),
                         "--out-dir", str(splits), "--seed", "7"]) == 0
        stages = [
            ["train-log", "--train", splits / "logs_train.ndjson"],
            ["train-malware", "--train", splits / "malware_train.csv", "--trees", "5"],
            ["calibrate", "--val-logs", splits / "logs_validation.ndjson",
             "--val-malware", splits / "malware_validation.csv", "--method", "identity"],
            ["tune", "--manifest", splits / "manifest_validation.ndjson"],
        ]
        for n, argv in enumerate(stages):
            assert cli_main([str(a) for a in argv] + ["--artifact", str(artifact)]) == 0
            loaded = load_artifact(artifact)
            assert loaded.status == (SERVING if n == len(stages) - 1 else PARTIAL)
            assert loaded.version == _payload_version(artifact)
            assert _spliced(loaded) == canonical_json_bytes(loaded.to_payload())

    @pytest.mark.parametrize("edit, match", [
        (_integral_knots_as_ints, r"\['calibrators'\] differ"),
        (lambda p: p["fusion"].update(t_m=str(p["fusion"]["t_m"])),
         "malformed component payload"),
        (lambda p: p["forest"].pop("training_meta"), r"\['forest'\] differ"),
        (lambda p: p["calibrators"]["malware"].pop("fit_meta"), r"\['calibrators'\] differ"),
        (lambda p: p["logistic"].update(bias=round(p["logistic"]["bias"])),
         r"\['logistic'\] differ"),
    ], ids=["knots-as-ints", "t_m-as-string", "forest-without-training-meta",
            "calibrator-without-fit-meta", "bias-as-int"])
    def test_a_payload_that_does_not_round_trip_is_refused(self, tmp_path, saved, edit, match):
        payload = json.loads(saved.read_text())["payload"]
        broken = copy.deepcopy(payload)
        edit(broken)
        assert canonical_json_bytes(broken) != canonical_json_bytes(payload)
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match=match):
            load_artifact(tmp_path / "a.json")

    def test_a_reformatted_file_loads_with_the_same_version(self, tmp_path, saved):
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(json.loads(saved.read_text()), indent=2))
        assert path.read_bytes() != saved.read_bytes()
        assert load_artifact(path).version == load_artifact(saved).version \
            == _payload_version(saved)

    def test_a_changed_value_under_the_old_checksum_is_corrupt(self, tmp_path, saved):
        envelope = json.loads(saved.read_text())
        envelope["payload"]["logistic"]["bias"] += 0.5
        path = tmp_path / "a.json"
        path.write_text(json.dumps(envelope))
        with pytest.raises(ArtifactError, match="checksum mismatch; file is corrupt"):
            load_artifact(path)


class TestFormat1:
    """A format-1 file (nested node objects) loads as the trees the grower writes."""

    @pytest.fixture(scope="class")
    def retrained(self):
        return run_experiment(ExperimentConfig(seed=7, forest_trees=3))

    def test_scores_bit_identically_to_a_fresh_run(self, retrained):
        loaded, fresh = load_artifact(FORMAT_1).to_scorer(), retrained.artifact.to_scorer()
        assert loaded.version == fresh.version
        X = np.array([item.malware.features for item in retrained.test_items])
        assert loaded.score_malware(X).tobytes() == fresh.score_malware(X).tobytes()
        for row in X[:20]:
            assert loaded.score_malware(row) == fresh.score_malware(row)
        messages = [item.log.message for item in retrained.test_items]
        assert loaded.score_log(messages).tobytes() == fresh.score_log(messages).tobytes()

    def test_cli_save_writes_the_format_2_bytes_of_a_fresh_run(self, tmp_path, retrained):
        save_artifact(retrained.artifact, tmp_path / "fresh.json")
        upgraded = tmp_path / "upgraded.json"
        assert cli_main(["save", "--artifact", str(FORMAT_1), "--out", str(upgraded)]) == 0
        assert upgraded.read_bytes() == (tmp_path / "fresh.json").read_bytes()
        written = json.loads(upgraded.read_text())["payload"]["format_version"]
        assert written == FORMAT_VERSION == "2"

    @pytest.mark.parametrize("edit, match", [
        (lambda forest: forest.update(trees=[]), "forest declares 3 trees and holds 0"),
        (lambda forest: forest.update(n_trees=2), "forest declares 2 trees and holds 3"),
        (lambda forest: forest["trees"][1]["left"]["counts"].__setitem__(0, -1),
         "forest holds a negative class count"),
    ], ids=["no-trees", "n-trees", "negative-count"])
    def test_forest_that_cannot_score_is_refused(self, tmp_path, edit, match):
        broken = json.loads(FORMAT_1.read_text())["payload"]
        edit(broken["forest"])
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match=f"inconsistent artifact: {match}"):
            load_artifact(tmp_path / "a.json")

    @settings(max_examples=40, deadline=None)
    @given(mutation=st.sampled_from(FORMAT_1_MUTATIONS), k=st.integers(0, 10_000))
    def test_mutated_forest_is_refused_not_served(self, tmp_path_factory, mutation, k):
        broken = json.loads(FORMAT_1.read_text())["payload"]
        assert broken["format_version"] == "1" and broken["status"] == SERVING
        mutation(broken, k)
        path = tmp_path_factory.mktemp("mutated") / "a.json"
        _write(path, broken)
        with pytest.raises(ArtifactError, match="inconsistent artifact"):
            load_artifact(path)


class TestSave:
    def test_bytes_are_the_canonical_envelope(self, tmp_path, demo_result):
        path = tmp_path / "a.json"
        checksum = save_artifact(demo_result.artifact, path)
        envelope = {"checksum": checksum, "payload": demo_result.artifact.to_payload()}
        assert path.read_bytes() == canonical_json_bytes(envelope) + b"\n"
        assert checksum == checksum_of(envelope["payload"])
        assert sorted(tmp_path.iterdir()) == [path]

    def test_infinite_threshold_is_refused_before_writing(self, tmp_path):
        with np.errstate(over="ignore"):  # the midpoint of 1.5e308 and 1.7e308
            forest = train_forest([[1.5e308], [1.7e308], [1.5e308], [1.7e308]], [0, 1, 0, 1],
                                  n_trees=1, bootstrap=False, min_samples_leaf=1)
        assert forest.threshold[0] == np.inf
        path = tmp_path / "a.json"
        path.write_bytes(b"previous")
        with pytest.raises(ArtifactError, match="not saved.*forest holds a non-finite number"):
            save_artifact(ModelArtifact(forest=forest, created_at=0), path)
        assert path.read_bytes() == b"previous"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_failed_write_keeps_the_previous_file(self, tmp_path, demo_result, monkeypatch):
        path = tmp_path / "a.json"
        save_artifact(demo_result.artifact, path)
        before = path.read_bytes()

        class DiskFull:
            """A file that takes half of the first write, then runs out of space."""

            def __init__(self, file, mode):
                self.handle = open(file, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[:len(data) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(artifact_module, "open", DiskFull, raising=False)
        later = dataclasses.replace(demo_result.artifact, created_at=1)
        with pytest.raises(OSError, match="No space left"):
            save_artifact(later, path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]
        monkeypatch.undo()
        save_artifact(later, path)
        assert load_artifact(path).created_at == 1


def _empty_tree(p):
    p["forest"]["trees"][2] = {key: [] for key in p["forest"]["trees"][2]}
    return "inconsistent artifact: forest holds a tree without nodes"


def _nested_left_ids(p):
    for tree in p["forest"]["trees"]:
        tree["left"] = [[child] for child in tree["left"]]
    return "malformed component payload: forest left lists hold something other than numbers"


def _scale_dropped(p):
    scales = p["standardizer"]["std"]
    scales.pop()
    return (f"inconsistent artifact: standardizer has {len(scales) + 1} means and "
            f"{len(scales)} scales")


def _knot_value_dropped(p):
    values = p["calibrators"]["logs"]["knot_values"]
    values.pop()
    return (f"inconsistent artifact: calibrator_logs has {len(values) + 1} knot scores and "
            f"{len(values)} knot values")


def _fusion_field(name, value):
    def edit(p):
        p["fusion"][name] = value
        bounds = "(0, 0.5]" if name == "grid_step" else "[0, 1]"
        return f"malformed component payload: {name} must be in {bounds}, got {value}"
    return edit


class TestRefusalMessages:
    """Refusals that no other test reaches, each with its whole message."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory, demo_result):
        path = tmp_path_factory.mktemp("refusals") / "artifact.json"
        save_artifact(demo_result.artifact, path)
        payload = json.loads(path.read_text())["payload"]
        assert payload["calibrators"]["logs"]["method"] == "ISOTONIC"
        return payload

    @pytest.mark.parametrize("edit", [
        _empty_tree, _nested_left_ids, _scale_dropped, _knot_value_dropped,
        _fusion_field("t_m", 1.5), _fusion_field("t_l", -0.25),
        _fusion_field("grid_step", 0.0), _fusion_field("grid_step", 0.75),
    ], ids=["tree-without-nodes", "node-lists-not-numbers", "means-and-scales",
            "knot-scores-and-values", "t_m-above-1", "t_l-below-0", "grid-step-0",
            "grid-step-above-half"])
    def test_load_refuses_with_its_message(self, tmp_path, payload, edit):
        broken = copy.deepcopy(payload)
        message = edit(broken)
        path = tmp_path / "a.json"
        _write(path, broken)
        with pytest.raises(ArtifactError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_artifact(path)

    def test_a_stored_payload_without_a_canonical_encoding_is_corrupt(self, tmp_path, payload):
        # the artifact drops the unknown key, so it encodes; the stored payload cannot
        path = tmp_path / "a.json"
        _write(path, {**payload, "note": float("nan")}, checksum="sha256:0")
        with pytest.raises(ArtifactError, match=f"^{re.escape(str(path))}: checksum mismatch; "
                                                "file is corrupt$"):
            load_artifact(path)

    def test_a_payload_that_does_not_round_trip_names_its_keys(self, tmp_path, payload):
        path = tmp_path / "a.json"
        _write(path, {**payload, "status": PARTIAL, "note": "hand-edited"})
        with pytest.raises(ArtifactError, match=f"^{re.escape(str(path))}: payload is not the "
                                                "canonical encoding of the artifact it loads as: "
                                                r"key\(s\) \['note', 'status'\] differ; "
                                                "missing components: none$"):
            load_artifact(path)

    def test_fingerprints_too_deep_to_encode_again_are_refused(self, tmp_path):
        payload = ModelArtifact(created_at=EPOCH_MS).to_payload()
        path = tmp_path / "a.json"
        refusals = set()
        for depth in range(850, 1000):
            nested = "[" * depth + "]" * depth
            text = json.dumps({**payload, "fingerprints": {"x": "@"}}).replace('"@"', nested)
            path.write_text(f'{{"checksum":"sha256:0","payload":{text}}}')
            with pytest.raises(ArtifactError) as refused:
                load_artifact(path)
            refusals.add(str(refused.value).removeprefix(f"{path}: ").split(" from ")[0])
        assert refusals == {
            "checksum mismatch; file is corrupt",
            "payload has no canonical encoding: maximum recursion depth exceeded while "
            "encoding a JSON object",
            "not a valid artifact container (truncated or corrupt, checksum cannot be "
            "verified): maximum recursion depth exceeded while decoding a JSON array"}

    @pytest.mark.parametrize("encoded", [False, True], ids=["new-forest", "encoded-forest"])
    def test_save_refuses_a_nan_beside_a_forest(self, tmp_path, demo_result, encoded):
        artifact = demo_result.artifact if encoded else _fresh(demo_result.artifact)
        path = tmp_path / "a.json"
        with pytest.raises(ValueError) as nan:
            json.dumps(float("nan"), allow_nan=False)
        message = f"{path}: not saved, payload holds a non-finite number: {nan.value}"
        with pytest.raises(ArtifactError, match=f"^{re.escape(message)}$"):
            save_artifact(dataclasses.replace(artifact, fingerprints={"x": float("nan")}), path)
        assert sorted(tmp_path.iterdir()) == []

    def test_save_refuses_a_nan_in_training_meta(self, tmp_path, demo_result):
        forest = dataclasses.replace(demo_result.artifact.forest,
                                     training_meta={"n_samples": float("nan")})
        path = tmp_path / "a.json"
        with pytest.raises(ArtifactError, match=f"^{re.escape(str(path))}: not saved, payload "
                                                "holds a non-finite number: Out of range float"):
            save_artifact(dataclasses.replace(demo_result.artifact, forest=forest), path)
        assert sorted(tmp_path.iterdir()) == []


# Format-1 nested trees of up to 6 leaves: thresholds include a negated zero,
# the smallest subnormal and numbers near the top of the float range.
_THRESHOLDS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
                                         1.7976931348623157e308, 0.1]),
                        st.floats(allow_nan=False, allow_infinity=False))
_COUNTS = st.lists(st.integers(0, 2**53), min_size=2, max_size=2)
_NESTED_TREES = st.recursive(
    st.builds(lambda counts: {"counts": counts}, _COUNTS),
    lambda children: st.builds(
        lambda counts, feature, threshold, left, right: {
            "counts": counts, "feature": feature, "threshold": threshold, "left": left,
            "right": right},
        _COUNTS, st.integers(0, 2), _THRESHOLDS, children, children),
    max_leaves=6)


class TestSplicedPayload:
    """The payload spliced from each component's bytes is, byte for byte,
    ``canonical_json_bytes(artifact.to_payload())``, and saves and loads as such."""

    @staticmethod
    def check(artifact, path) -> None:
        assert _spliced(artifact) == canonical_json_bytes(artifact.to_payload())
        save_artifact(artifact, path)
        envelope = {"checksum": artifact.checksum, "payload": artifact.to_payload()}
        assert path.read_bytes() == canonical_json_bytes(envelope) + b"\n"
        loaded = load_artifact(path)
        assert _spliced(loaded) == _spliced(artifact) and loaded.version == artifact.version

    def test_empty_artifact(self, tmp_path):
        self.check(ModelArtifact(created_at=0), tmp_path / "a.json")

    def test_run_experiment_and_format_1(self, tmp_path, demo_result):
        self.check(demo_result.artifact, tmp_path / "a.json")
        self.check(_fresh(demo_result.artifact), tmp_path / "b.json")
        self.check(load_artifact(FORMAT_1), tmp_path / "c.json")

    @pytest.mark.parametrize("calibrator", [
        lambda a: identity_calibrator(), lambda a: identity_calibrator("one class"),
        lambda a: a.calibrator_malware, lambda a: a.calibrator_logs,
    ], ids=["identity", "identity-with-reason", "platt", "isotonic"])
    def test_each_calibrator_kind(self, tmp_path, demo_result, calibrator):
        artifact = demo_result.artifact
        cal = dataclasses.replace(calibrator(artifact))
        self.check(dataclasses.replace(artifact, calibrator_logs=cal, calibrator_malware=cal),
                   tmp_path / "a.json")
        self.check(ModelArtifact(calibrator_malware=cal, created_at=1), tmp_path / "b.json")

    @settings(max_examples=40, deadline=None)
    @given(fingerprints=st.dictionaries(st.text(max_size=6), st.text(max_size=12), max_size=4))
    def test_fingerprints_of_any_text(self, tmp_path_factory, fingerprints):
        fingerprints["na\u00efve \u65e5\u672c \U0001f600"] = "\u00e9\u0000\"\\"
        path = tmp_path_factory.mktemp("fingerprints") / "a.json"
        self.check(ModelArtifact(created_at=EPOCH_MS, fingerprints=fingerprints), path)
        assert load_artifact(path).fingerprints == fingerprints

    @settings(max_examples=60, deadline=None)
    @given(trees=st.lists(_NESTED_TREES, min_size=1, max_size=3),
           meta=st.dictionaries(st.text(max_size=4), st.floats(allow_nan=False,
                                                                allow_infinity=False), max_size=2))
    def test_small_forests(self, tmp_path_factory, trees, meta):
        forest = ForestModel.from_dict({
            "trees": node_lists_of_nested(trees), "n_features": 3, "n_trees": len(trees),
            "max_depth": 4, "min_samples_leaf": 1, "features_per_split": 2, "seed": 0,
            "training_meta": meta})
        path = tmp_path_factory.mktemp("forest") / "a.json"
        self.check(ModelArtifact(forest=forest, created_at=0), path)
        stored = load_artifact(path).forest
        assert stored.threshold.tobytes() == forest.threshold.tobytes()  # -0.0 keeps its sign
