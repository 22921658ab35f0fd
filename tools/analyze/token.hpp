// Token model for the quicsteps static analyzer.
//
// The analyzer never parses C++ properly (that would need a real frontend);
// it works on a comment- and literal-aware token stream. Each token carries
// its 1-based line/column so findings anchor exactly where an editor or the
// SARIF viewer expects them.
#pragma once

#include <string>
#include <vector>

namespace quicsteps::analyze {

enum class TokKind {
  kIdentifier,   // foo, int64_t, std
  kNumber,       // 42, 0x1f, 1'000'000, 2.0e9
  kString,       // "..." including raw strings (text is the body)
  kCharLit,      // 'a'
  kPunct,        // one of the operator/punctuator spellings
  kIncludePath,  // the path of an #include directive ("sim/time.hpp" or
                 // <vector>); text is the path without quotes/brackets
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based
  int col = 0;   // 1-based
  bool in_pp = false;  // token is part of a preprocessor directive

  bool is_id(const char* s) const {
    return kind == TokKind::kIdentifier && text == s;
  }
  bool is_punct(const char* s) const {
    return kind == TokKind::kPunct && text == s;
  }
};

/// One #include directive, extracted during lexing.
struct IncludeDirective {
  std::string path;  // as written, without the quotes / angle brackets
  bool angle = false;
  int line = 0;
};

/// Everything lexing one translation unit produces.
struct LexResult {
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  bool has_pragma_once = false;
};

}  // namespace quicsteps::analyze
