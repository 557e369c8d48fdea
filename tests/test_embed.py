import numpy as np
import pytest

from agentroute.embed import (HashEmbedder, RemoteEmbedError, RemoteEmbedder,
                              hash_embed, remote_embed)

# Frozen from an independent scripted implementation of the documented
# scheme (FNV-1a 64 per token, bucket = hash mod d, sign from one splitmix64
# round, L2 normalize).
HELLO_WORLD_D8 = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
PANGRAM_D6 = [-0.60302268915552726, 0.0, -0.60302268915552726,
              -0.30151134457776363, -0.30151134457776363, 0.30151134457776363]


def test_empty_text_embeds_to_zero_vector():
    vec = hash_embed("", 5)
    np.testing.assert_array_equal(vec, np.zeros(5))
    np.testing.assert_array_equal(hash_embed("!!! ???", 5), np.zeros(5))


def test_hash_embed_is_deterministic():
    a = hash_embed("The quick brown Fox", 32)
    b = hash_embed("The quick brown Fox", 32)
    np.testing.assert_array_equal(a, b)


def test_hash_embed_matches_independent_oracle():
    np.testing.assert_allclose(hash_embed("hello world", 8), HELLO_WORLD_D8,
                               rtol=0, atol=0)
    np.testing.assert_allclose(
        hash_embed("the quick brown fox jumps over the lazy dog", 6),
        PANGRAM_D6, rtol=0, atol=1e-16)


def test_unit_norm_for_any_text_with_a_token():
    rng = np.random.default_rng(123)
    words = ["alpha", "beta", "Gamma", "42", "x1", "route", "agent", "entropy"]
    for _ in range(200):
        count = rng.integers(1, 8)
        text = " ".join(rng.choice(words, size=count))
        norm = np.linalg.norm(hash_embed(text, 16))
        assert abs(norm - 1.0) <= 1e-12


def test_token_multiset_invariance():
    a = hash_embed("alpha beta gamma", 32)
    b = hash_embed("gamma   ALPHA, beta!", 32)
    np.testing.assert_array_equal(a, b)
    # different multiset embeds differently
    c = hash_embed("alpha alpha beta gamma", 32)
    assert not np.array_equal(a, c)


def test_hash_embed_case_and_punctuation_folding():
    np.testing.assert_array_equal(hash_embed("Hello, WORLD", 8),
                                  hash_embed("world hello", 8))


def test_hash_embed_rejects_bad_dim():
    with pytest.raises(ValueError):
        hash_embed("x", 0)


def test_hash_embedder_caps_characters():
    embedder = HashEmbedder(8, max_chars=5)
    np.testing.assert_array_equal(embedder("hello world"), hash_embed("hello", 8))


def test_remote_embed_accepts_matching_dimension(http_server):
    vector = [0.1] * 384
    seen = {}

    def respond(path, body, headers):
        seen["body"] = body
        seen["auth"] = headers.get("Authorization")
        return 200, {"embedding": vector}

    url = http_server(respond)
    out = remote_embed("some text", url, 384, api_key="sk-test")
    assert out.shape == (384,)
    np.testing.assert_allclose(out, vector)
    assert seen["body"] == {"input": "some text"}
    assert seen["auth"] == "Bearer sk-test"


def test_remote_embed_rejects_dimension_mismatch(http_server):
    url = http_server(lambda path, body, headers: (200, {"embedding": [0.0] * 100}))
    with pytest.raises(RemoteEmbedError, match="expected 384, received 100"):
        remote_embed("text", url, 384)


def test_remote_embed_rejects_non_finite_entries(http_server):
    url = http_server(lambda path, body, headers: (200, {"embedding": [1.0, float("nan")]}))
    with pytest.raises(RemoteEmbedError, match="non-finite"):
        remote_embed("text", url, 2)


@pytest.mark.parametrize("body", [
    [[0.5, 0.5]],
    None,
    {"embedding": ["a", "b"]},
    {"embedding": [{}, {"x": 1}]},
    {"embedding": [10 ** 400, 0.0]},
], ids=["list body", "null body", "string entries", "object entries",
        "integer no float64 holds"])
def test_remote_embed_malformed_body_is_typed(http_server, body):
    url = http_server(lambda path, b, headers: (200, body))
    with pytest.raises(RemoteEmbedError):
        remote_embed("text", url, 2)


def test_remote_embed_reports_http_errors(http_server):
    url = http_server(lambda path, body, headers: (500, {"error": "boom"}))
    with pytest.raises(RemoteEmbedError, match="HTTP 500"):
        remote_embed("text", url, 4)


def test_remote_embed_reports_transport_failure():
    with pytest.raises(RemoteEmbedError, match="failed"):
        remote_embed("text", "http://127.0.0.1:1/embed", 4, timeout=0.2)


def test_remote_embedder_wrapper(http_server):
    url = http_server(lambda path, body, headers: (200, {"embedding": [1.0, 2.0]}))
    embedder = RemoteEmbedder(url, 2)
    np.testing.assert_allclose(embedder("anything"), [1.0, 2.0])
