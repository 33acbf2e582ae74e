import pytest

from epower.qmath import DomainError
from epower.results import EntanglingPowerResult


@pytest.mark.parametrize("value", [-0.1, 2.1, float("nan")])
def test_rejects_value_outside_range(value):
    with pytest.raises(DomainError):
        EntanglingPowerResult(value=value, method="oracle")
