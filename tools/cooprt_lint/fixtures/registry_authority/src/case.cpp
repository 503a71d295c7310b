// Fixture: registry-authority. Literal dotted metric names must be
// registered once and documented in DESIGN.md (exact or wildcard
// table row); owned families only from their authority file.
#include <string>

struct Registry
{
    void probe(const std::string &, double) {}
};

void
registerAll(Registry &reg, const std::string &name)
{
    reg.probe("unit.documented", 1.0);    // clean: exact entry
    reg.probe("unit.wild.anything", 2.0); // clean: unit.wild.*
    reg.probe("unit.undocumented", 3.0);  // V: no DESIGN.md entry
    reg.probe("unit.twice", 4.0);         // clean: first site
    reg.probe("unit.twice", 5.0);         // V: duplicate
    reg.probe("prof.outside", 6.0);       // V: owned family, wrong file
    reg.probe("memscope." + name, 7.0);   // V: computed, wrong file
    reg.probe("unit.prose.x", 8.0);       // V: prose is no wildcard row
    reg.probe("unit.cell.x", 9.0);        // V: wildcard not in first cell
}
