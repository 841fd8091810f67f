class ScriptedStream:
    """Stream stub replaying prescribed draws; makes randomized paths exact.

    `uniforms` feeds .uniform() scalar calls in order; `ints` feeds
    .integers() calls. Raises when a test consumes more than it scripted.
    """

    def __init__(self, uniforms=(), ints=()):
        self._uniforms = list(uniforms)
        self._ints = list(ints)

    def uniform(self, size=None):
        if size is not None:
            raise AssertionError("scripted stream only supports scalar draws")
        if not self._uniforms:
            raise AssertionError("scripted stream ran out of uniforms")
        return self._uniforms.pop(0)

    def integers(self, low, high, size=None):
        if size is not None:
            raise AssertionError("scripted stream only supports scalar draws")
        if not self._ints:
            raise AssertionError("scripted stream ran out of integers")
        value = self._ints.pop(0)
        assert low <= value < high, f"scripted integer {value} outside [{low}, {high})"
        return value

    @property
    def exhausted(self):
        return not self._uniforms and not self._ints
