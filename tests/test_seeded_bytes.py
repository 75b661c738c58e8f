"""Seeded output pinned byte for byte.

The nine suites (A/B/C x low/high/adaptive, seed 7) run in process through
the functions `adaptbt run` calls, and a chain of twelve `adaptbt tick
--data-store` calls runs through `cli.main`. Each output, and the chain's
stdout, is pinned by its sha256, so a change that shifts every seeded run the same way fails here.
A change that must move a digest says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from adaptbt.bench import DEFAULT_STRATEGIES, canonical_tree_text, \
    emit_results, make_config, run_experiment, summarize
from adaptbt.cli import main
from adaptbt.strategies import persist

SEED = 7

# (summary text, results CSV, store CSV) per suite
SUITE_DIGESTS = {
    ("A", "low"): (
        "d6ff5e9f6a4f4ce8d378a079db87d0b5905c3fee63ed2cb5d13c38a1155d9e76",
        "c3df570ce055e1f51df833e0db044348c89b09ccde7ead70fa5625fdabbef873",
        "865b5636250dbd1932d2557e7b2ec50f2fcc43dcd886bed74c8ec6527c804d58"),
    ("A", "high"): (
        "aed9b3b7ba991fdf8464acb4f4eff61af29cb791368558237a5b71bce9bd4bbc",
        "658154a937a37393745a5bf9817b0d9e86110af17a3c64c077b105854c67aff8",
        "8444e3e67d1fce63a453bc8ab65253185c8c8128b5bc14e32ddab392a09787aa"),
    ("A", "adaptive"): (
        "2255e4098f6d9c5bb92755ad17957788ab697a5db3ee43fdf4ce298f98524aba",
        "c3df570ce055e1f51df833e0db044348c89b09ccde7ead70fa5625fdabbef873",
        "865b5636250dbd1932d2557e7b2ec50f2fcc43dcd886bed74c8ec6527c804d58"),
    ("B", "low"): (
        "6f0bbf4bd9887b22b3ed6044a79bd1a45a62213959c42eec6f235355df09b7a5",
        "71ddaaa6fb28a37ef919024821f91ada7cffeb93607a0a6d4cee170b80cc61dc",
        "3789cc1476971f06306d5d8301ff09e335263b85dc8bb8c39048189c91a107c9"),
    ("B", "high"): (
        "b72ecfa0f18e10ced53cb10d1ccff800618ba5dfc4ad9ca14ecafe0e5b945bfa",
        "2774177169e3dbf4ad051f78fcaa8283ae737c917aec1098ca2b79187a89b852",
        "da3eede5eb58ffea110672123b6d1ad6d67ad50853c6983b9151e7b490224aee"),
    ("B", "adaptive"): (
        "cfb4ba3abc6d52a28dde8b3f6750f21463f256c916d8d53487c5cfa0f090e2a3",
        "4bed3696e5efda4db3b38c0a6b0c2053a6633aa43084cc61d22e4c70212e48b7",
        "7e1e744e51a9a413dcfeb3b65e2e63d28d8d37aacb9e2691a3693ce02431e54e"),
    ("C", "low"): (
        "e2eb81df92b83a7e00a7f30549c0118dec8b2d7709fe66c3f695025f72f90692",
        "dbc12e67850827b127cc1bef1f0aae2dfc0059c3cbd032a62d38632d87a71169",
        "3e922cb37dd5fe0c4672a8a57d61f8b48bc15fd6614ff0b2dbc96d58f93bf06b"),
    ("C", "high"): (
        "f25b6c953c10334ba49bd89ac652946a3164c5571e004bde665bbb8a5a328dff",
        "40ad3c5961c34c01bf438842afa7e8a9035c47ce97d50381c1e49f22685b5fc1",
        "200592424624620b69862397d86db43b031510efa279523ae33c4d004656f491"),
    ("C", "adaptive"): (
        "d777ffd7f9f93efb9987d1fad100c1b5e7af837b2e0e548efb6c2b2c436ba167",
        "3a563651d76abed2d29ed51f186d6d7223941d13eed3c6f7c5a138563b143d97",
        "49ff856c8b239f518470ff8ccbcf8ba3d3bf07e22ebab8ddfa1f442dc01d26b6"),
}

# the store after `tick --seed 5` for trials 1-12, stiff on odd trials
TICK_CHAIN_DIGEST = (
    "9c96c621879ab4e44002b64255225a00b245882c8caf60d2f9063eccbe29fd22")

# what the same twelve calls print, with the store path as STORE_PATH
TICK_CHAIN_STDOUT_DIGEST = (
    "714f6bb1a7389986b15e92ddfedc6fb09697c2ea95e8658ba40eb752f6dcbcb9")
STORE_PATH = "<store>"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("experiment,behavior", list(SUITE_DIGESTS))
def test_suite_bytes_are_pinned(tmp_path, experiment, behavior):
    config = make_config(experiment, behavior, SEED)
    results, store = run_experiment(config, list(DEFAULT_STRATEGIES))
    out, store_path = tmp_path / "results.csv", tmp_path / "store.csv"
    emit_results(results, out)
    persist(store, store_path)
    digests = (sha256(summarize(results, config).encode()),
               sha256(out.read_bytes()), sha256(store_path.read_bytes()))
    assert digests == SUITE_DIGESTS[experiment, behavior]


def test_tick_chain_store_is_pinned(tmp_path, capsys):
    tree = tmp_path / "canonical.xml"
    tree.write_text(canonical_tree_text([s.id for s in DEFAULT_STRATEGIES]))
    store = tmp_path / "store.csv"
    for trial in range(1, 13):
        config = tmp_path / f"trial{trial}.json"
        config.write_text(json.dumps(
            {"device": "stiff" if trial % 2 else "normal", "trial": trial}))
        code = main(["tick", "--tree", str(tree), "--config", str(config),
                     "--seed", "5", "--data-store", str(store)])
        assert code in (0, 1)
    capsys.readouterr()
    assert sha256(store.read_bytes()) == TICK_CHAIN_DIGEST


def test_tick_chain_stdout_is_pinned(tmp_path, capsys):
    # the per-tick trace lines, diagnostics and episode lines of every call
    tree = tmp_path / "canonical.xml"
    tree.write_text(canonical_tree_text([s.id for s in DEFAULT_STRATEGIES]))
    store = tmp_path / "store.csv"
    stdout = []
    for trial in range(1, 13):
        config = tmp_path / f"trial{trial}.json"
        config.write_text(json.dumps(
            {"device": "stiff" if trial % 2 else "normal", "trial": trial}))
        code = main(["tick", "--tree", str(tree), "--config", str(config),
                     "--seed", "5", "--data-store", str(store)])
        assert code in (0, 1)
        stdout.append(capsys.readouterr().out.replace(str(store), STORE_PATH))
    assert sha256("".join(stdout).encode()) == TICK_CHAIN_STDOUT_DIGEST
