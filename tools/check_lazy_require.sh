#!/usr/bin/env bash
# Fails when a `require(` check builds its message eagerly: a string
# concatenation (`"..." + x`, `x + "..."`, `+ std::to_string(...)`) inside
# the argument list runs on every call, even though the message is only
# needed when the check fails. Hot paths then allocate for nothing. Use the
# lazy overload instead: require(cond, [&] { return "..." + x; }).
#
#   tools/check_lazy_require.sh [DIR]    (default: src)
#
# The match stops at `{`, so a lambda body that formats the message is
# not flagged. Exit status 1 and the offending calls on stdout on failure.
set -u
dir="${1:-src}"
pat='require\((?:[^;"{]|"(?:[^"\\]|\\.)*")*?(?:"(?:[^"\\]|\\.)*"\s*\+|\+\s*["'"'"']|\+\s*std::to_string)'
hits=$(grep -rPzl --include='*.cpp' --include='*.hpp' "$pat" "$dir")
if [ -n "$hits" ]; then
  echo "eager require() message (use the lazy overload) in:"
  for f in $hits; do
    echo "  $f:"
    grep -Pzo "$pat" "$f" | tr '\0' '\n' | sed 's/^/    /'
  done
  exit 1
fi
