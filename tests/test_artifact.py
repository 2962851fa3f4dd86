import copy
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.errors import ArtifactError
from aisoc.fusion import FusionConfig
from aisoc.service import build_artifact, load_artifact, save_artifact
from aisoc.service.artifact import PARTIAL, SERVING, checksum_of


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
        artifact = demo_result.artifact
        original_fusion = artifact.fusion
        artifact.fusion = FusionConfig(t_m=0.10, t_l=0.42, grid_step=0.01,
                                       tuned_on="validation", version="1")
        try:
            path = tmp_path / "artifact.json"
            save_artifact(artifact, path)
            loaded = load_artifact(path)
            assert loaded.fusion.t_m == 0.10
            assert loaded.fusion.t_l == 0.42
        finally:
            artifact.fusion = original_fusion


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
        partial = build_artifact(vocabulary=demo_result.artifact.vocabulary,
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
        artifact = build_artifact()
        assert artifact.created_at > 0


def _write(path, payload, checksum=None) -> None:
    if checksum is None:
        checksum = checksum_of(payload)
    path.write_text(json.dumps({"checksum": checksum, "payload": payload}))


def _split_nodes(forest_payload) -> list[dict]:
    nodes, stack = [], list(forest_payload["trees"])
    while stack:
        node = stack.pop()
        if "feature" in node:
            nodes.append(node)
            stack.extend((node["left"], node["right"]))
    return nodes


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


def _mutate_tree_feature(p, k):
    nodes = _split_nodes(p["forest"])
    n = p["forest"]["n_features"]
    nodes[k % len(nodes)]["feature"] = n + k % 4 if k % 2 else -1 - k % 4


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
             _mutate_tree_feature, _mutate_knot_order, _mutate_knot_value, _mutate_platt,
             _mutate_weight_value]


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
