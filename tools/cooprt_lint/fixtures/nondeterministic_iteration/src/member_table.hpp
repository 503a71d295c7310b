// Fixture: a member declared in the header...
#include <ostream>
#include <unordered_map>

struct MemberTable
{
    std::unordered_map<int, int> cells_;
    void emit(std::ostream &os) const;
};
