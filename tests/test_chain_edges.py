"""Edge cases of chain construction: rounding at a hypothesis boundary, and
the grid and mode validation and matrix mode shared by both grid chains."""

import pytest

from hadamard_jsr import (SUPER, DimensionMismatch, GeneratorParams,
                          WeightVector, chain_finally, chain_finally2,
                          chain_kathyth2, generate_instance, uniform_weights)


def test_chain_kathyth2_alpha_one_over_m_rounding():
    # (1/49) * 49 rounds to 0.9999999999999999, yet alpha = 1/m meets the
    # hypothesis alpha >= 1/m; the super-regime weights absorb the rounding
    sets = generate_instance(GeneratorParams(2, 49, 1, 1.0, 1.0, 5))
    assert (1 / 49) * 49 < 1
    rep = chain_kathyth2(sets, 1 / 49, 1)
    assert rep.verdict == "verified"
    assert any("skipped" in note for note in rep.notes)


@pytest.mark.parametrize("chain", [chain_finally, chain_finally2])
def test_grid_chains_reject_ragged_grid(chain):
    sets = generate_instance(GeneratorParams(2, 3, 1, 1.0, 1.0, 7))
    with pytest.raises(DimensionMismatch,
                       match="grid rows must have equal length"):
        chain([sets, sets[:2]], uniform_weights(3), n=1, depth=2)


@pytest.mark.parametrize("chain", [chain_finally, chain_finally2])
def test_grid_chains_reject_unknown_mode(chain):
    sets = generate_instance(GeneratorParams(2, 2, 1, 1.0, 1.0, 7))
    with pytest.raises(ValueError, match="mode"):
        chain([sets, sets], uniform_weights(2), n=1, depth=2, mode="kernal")


@pytest.mark.parametrize("chain", [chain_finally, chain_finally2])
def test_grid_chains_kernel_mode_needs_convex_weights(chain):
    sets = generate_instance(GeneratorParams(2, 2, 1, 1.0, 1.0, 7))
    with pytest.raises(ValueError, match="convex"):
        chain([sets, sets], WeightVector((1.0, 1.0), SUPER), n=1, depth=2)


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.7, 0.5)])
@pytest.mark.parametrize("chain", [chain_finally, chain_finally2])
def test_grid_chains_matrix_mode_super_weights(chain, weights):
    for seed in range(6):
        sets = generate_instance(GeneratorParams(3, 2, 2, 0.9, 1.0, seed))
        rep = chain([sets, sets[::-1]], WeightVector(weights, SUPER), n=2,
                    mode="matrix")
        assert rep.verdict == "verified", seed
        assert rep.context["mode"] == "matrix"
