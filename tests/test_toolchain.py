"""The test run loads the plugins pyproject.toml declares, and no others.

Plugin autoload is off, so a pytest plugin that happens to be installed
(pytest-benchmark, say) neither loads nor has its modules rewritten, and the
one declared plugin, hypothesis's, is loaded without assertion rewriting.
"""

import sys

from _pytest.assertion.rewrite import AssertionRewritingHook


def test_only_declared_plugins_load_and_none_is_rewritten(pytestconfig):
    assert pytestconfig.pluginmanager.has_plugin("hypothesispytest")
    modules = list(sys.modules.items())
    assert [name for name, _ in modules if name.partition(".")[0] == "pytest_benchmark"] == []
    assert [name for name, module in modules
            if name.partition(".")[0] in ("hypothesis", "_hypothesis_pytestplugin")
            and isinstance(getattr(module, "__loader__", None), AssertionRewritingHook)] == []
