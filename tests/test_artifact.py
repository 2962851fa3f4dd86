import copy
import dataclasses
import errno
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.cli import main as cli_main
from aisoc.errors import ArtifactError
from aisoc.fusion import FusionConfig
from aisoc.learn import train_forest
from aisoc.pipeline import ExperimentConfig, calibrate_detectors, run_experiment
from aisoc.service import artifact as artifact_module
from aisoc.service import ModelArtifact, load_artifact, save_artifact
from aisoc.service.artifact import (FORMAT_VERSION, PARTIAL, SERVING, canonical_json_bytes,
                                    checksum_of)

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

    def test_version_then_scorer_hash_the_payload_once(self, demo_result, monkeypatch):
        artifact = dataclasses.replace(demo_result.artifact)  # a new value, not hashed yet
        expected = demo_result.artifact.version
        calls = []
        original = artifact_module.checksum_of

        def counting(payload):
            calls.append(1)
            return original(payload)

        monkeypatch.setattr(artifact_module, "checksum_of", counting)
        version = artifact.version
        assert artifact.to_scorer().version == version == expected
        assert len(calls) == 1

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

    def test_calibrating_clears_the_thresholds_tuned_on_the_old_calibrators(self, demo_result):
        tuned = demo_result.artifact
        calibrated = calibrate_detectors(tuned, demo_result.log_split.validation,
                                         demo_result.malware_split.validation, "auto")
        assert calibrated.fusion is None and calibrated.status == PARTIAL
        for name in ("calibrator_logs", "calibrator_malware"):
            assert getattr(calibrated, name).to_dict() == getattr(tuned, name).to_dict()
        assert tuned.fusion is demo_result.fusion_config
        assert checksum_of(tuned.to_payload()) == tuned.checksum


class TestSelfDescription:
    """A payload is refused when its own fields misdescribe it, checksum or not."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory, demo_result):
        path = tmp_path_factory.mktemp("described") / "artifact.json"
        save_artifact(demo_result.artifact, path)
        return json.loads(path.read_text())["payload"]

    def test_unknown_key_is_refused(self, tmp_path, payload):
        _write(tmp_path / "a.json", {**payload, "comment": "hand-edited"})
        with pytest.raises(ArtifactError, match=r"unknown payload key\(s\) \['comment'\]"):
            load_artifact(tmp_path / "a.json")

    def test_missing_key_is_refused(self, tmp_path, payload):
        broken = {key: value for key, value in payload.items() if key != "status"}
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match=r"payload lacks key\(s\) \['status'\]"):
            load_artifact(tmp_path / "a.json")

    @pytest.mark.parametrize("created_at", ["1735689600000", 5.0, True, None])
    def test_created_at_that_is_not_an_integer_is_refused(self, tmp_path, payload, created_at):
        _write(tmp_path / "a.json", {**payload, "created_at": created_at})
        with pytest.raises(ArtifactError, match="created_at must be an integer"):
            load_artifact(tmp_path / "a.json")

    @pytest.mark.parametrize("status", ["READY", "serving", None])
    def test_unknown_status_is_refused(self, tmp_path, payload, status):
        _write(tmp_path / "a.json", {**payload, "status": status})
        with pytest.raises(ArtifactError, match="status must be SERVING or PARTIAL"):
            load_artifact(tmp_path / "a.json")

    def test_partial_status_with_every_component_is_refused(self, tmp_path, payload):
        _write(tmp_path / "a.json", {**payload, "status": PARTIAL})
        with pytest.raises(ArtifactError,
                           match="status PARTIAL disagrees with the components; "
                                 "missing components: none"):
            load_artifact(tmp_path / "a.json")


def _write(path, payload, checksum=None) -> None:
    if checksum is None:
        checksum = checksum_of(payload)
    path.write_text(json.dumps({"checksum": checksum, "payload": payload}))


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
        ("features_per_split", True), ("n_features", "8"), ("seed", -1),
    ], ids=["float", "fraction", "zero", "negative", "bool", "string", "negative-seed"])
    def test_forest_integer_field_outside_training_bounds_is_refused(self, tmp_path, payload,
                                                                     name, value):
        broken = copy.deepcopy(payload)
        broken["forest"][name] = value
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match=f"malformed component payload: forest {name} "
                                                f"must be an integer >= [01], got {value!r}"):
            load_artifact(tmp_path / "a.json")

    def test_fusion_with_an_unknown_key_is_refused(self, tmp_path, payload):
        broken = copy.deepcopy(payload)
        broken["fusion"]["note"] = "hand-edited"
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match=r"fusion has unknown key\(s\) \['note'\]"):
            load_artifact(tmp_path / "a.json")

    def test_fusion_without_its_version_is_refused(self, tmp_path, payload):
        broken = copy.deepcopy(payload)
        del broken["fusion"]["version"]
        _write(tmp_path / "a.json", broken)
        with pytest.raises(ArtifactError, match=r"fusion lacks key\(s\) \['version'\]"):
            load_artifact(tmp_path / "a.json")


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
