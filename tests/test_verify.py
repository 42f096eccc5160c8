"""The verification entry point's own argument checks."""

from __future__ import annotations

import pytest

from cobinary import verify


@pytest.mark.parametrize("samples", [0, -1])
def test_run_all_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify.run_all((1, -1, 1, -1), n_max=2, samples=samples)
