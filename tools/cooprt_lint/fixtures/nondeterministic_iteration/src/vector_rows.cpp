// Fixture: clean. A vector that shares its name with an unordered
// container in another file (hash_rows.cpp) iterates in index order.
#include <ostream>
#include <vector>

void
emitRows(std::ostream &os, const std::vector<int> &rows)
{
    for (const int v : rows)
        os << v << "\n";
}
