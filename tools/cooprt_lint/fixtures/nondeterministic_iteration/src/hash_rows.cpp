// Fixture: nondeterministic-iteration across files. `rows` is an
// unordered container here only; the vector of the same name in
// vector_rows.cpp must not be flagged because of it.
#include <unordered_map>

int
countRows()
{
    std::unordered_map<int, int> rows;
    int n = 0;
    for (const auto &kv : rows)
        n += kv.second;
    return n;
}
