// Fixture: an exporter-path file (name contains "exporter") naming an
// unordered container without std:: qualification, via a using-import.
// determinism/unordered-container reports it like the qualified form.
using namespace std;

void write_rows() {
  unordered_map<int, int> rows;  // line 7: determinism/unordered-container
  rows[1] = 2;
}
