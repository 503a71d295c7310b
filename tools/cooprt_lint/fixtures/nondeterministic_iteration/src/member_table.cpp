// ...and iterated in the matching source. V: flagged.
#include "member_table.hpp"

void
MemberTable::emit(std::ostream &os) const
{
    for (const auto &kv : cells_)
        os << kv.first << "\n";
}
