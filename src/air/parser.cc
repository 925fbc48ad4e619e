#include "parser.hh"

#include <array>
#include <charconv>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <vector>

#include "logging.hh"

namespace sierra::air {

namespace {

/** Token categories recognized by the AIR lexer. */
enum class Tok {
    Ident,
    Int,
    Str,
    Punct, //!< one of { } ( ) [ ] : ; , = @ .
    Eof,
};

/**
 * One token. `text` views the input, except for a string literal with
 * escapes: its unescaped value lives in the lexer, and only until the
 * lexer reaches the next such literal.
 */
struct Token {
    Tok kind{Tok::Eof};
    std::string_view text;
    int64_t intValue{0};
    int line{1};
};

/** Parse failure carrying a message and a line number. */
struct ParseFail : std::runtime_error {
    int line;
    ParseFail(const std::string &msg, int l)
        : std::runtime_error(msg), line(l)
    {
    }
};

/** A failure of the lexer itself. It outranks a parse failure: the
 *  first lexical error anywhere in the input is what gets reported. */
struct LexFail : ParseFail {
    using ParseFail::ParseFail;
};

/** Character classes; the table replaces <cctype> (the "C" locale). */
enum : uint8_t {
    kSpace = 1,       //!< isspace
    kIdentStart = 2,  //!< letters, '_', '$', '<' (as in "<init>")
    kIdentChar = 4,   //!< alnum, '_', '$', '-', '<', '>'
    kDigit = 8,
    kPunct = 16,      //!< { } ( ) [ ] : ; , = @ .
    kTrivia = 32,     //!< may start whitespace or a comment: isspace, #, /
};

constexpr std::array<uint8_t, 256>
makeCharClasses()
{
    std::array<uint8_t, 256> t{};
    for (char c : std::string_view(" \t\n\v\f\r"))
        t[static_cast<unsigned char>(c)] |= kSpace | kTrivia;
    for (char c : std::string_view("#/"))
        t[static_cast<unsigned char>(c)] |= kTrivia;
    for (int c = 'a'; c <= 'z'; ++c)
        t[c] |= kIdentStart | kIdentChar;
    for (int c = 'A'; c <= 'Z'; ++c)
        t[c] |= kIdentStart | kIdentChar;
    for (int c = '0'; c <= '9'; ++c)
        t[c] |= kDigit | kIdentChar;
    for (char c : std::string_view("_$<"))
        t[static_cast<unsigned char>(c)] |= kIdentStart | kIdentChar;
    for (char c : std::string_view("->"))
        t[static_cast<unsigned char>(c)] |= kIdentChar;
    for (char c : std::string_view("{}()[]:;,=@."))
        t[static_cast<unsigned char>(c)] |= kPunct;
    return t;
}

constexpr std::array<uint8_t, 256> kCharClass = makeCharClasses();

bool
inClass(char c, uint8_t cls)
{
    return kCharClass[static_cast<unsigned char>(c)] & cls;
}

/**
 * Streaming lexer: produces one token at a time on demand, so no token
 * vector is ever built. The only storage it owns is the unescaped value
 * of the current string literal, when that literal has escapes.
 */
class Lexer
{
  public:
    explicit Lexer(std::string_view text)
        : _cur(text.data()), _end(text.data() + text.size())
    {
        advance();
    }

    const Token &peek() const { return _tok; }

    /** Replace the current token with the next one. */
    void advance();

    /** True if the token after the current one is an identifier (the
     *  one-token lookahead dotted names need). */
    bool
    identFollows() const
    {
        int lines = 0;
        const char *p = skipTrivia(_cur, lines);
        return p != _end && inClass(*p, kIdentStart);
    }

    /**
     * Extend the current identifier over the ".ident" parts that follow
     * it directly: the printed form of a dotted name becomes one token.
     * The parser would join the same parts token by token.
     */
    void
    joinDotted()
    {
        const char *p = _cur;
        while (_end - p > 1 && *p == '.' && inClass(p[1], kIdentStart)) {
            p += 2;
            while (p != _end && inClass(*p, kIdentChar))
                ++p;
        }
        _tok.text = {_tok.text.data(),
                     static_cast<size_t>(p - _tok.text.data())};
        _cur = p;
    }

    /** Lex the rest of the input, throwing on its first lexical error. */
    void
    drain()
    {
        while (_tok.kind != Tok::Eof)
            advance();
    }

  private:
    [[noreturn]] void fail(const std::string &msg) const
    {
        throw LexFail(msg, _line);
    }

    /** The next token start at or after `p` (skipping whitespace and
     *  comments), adding the newlines passed to `lines`. */
    const char *skipTrivia(const char *p, int &lines) const;
    void lexString();

    const char *_cur; //!< the first character after the current token
    const char *_end;
    int _line{1};
    Token _tok;
    std::string _escaped; //!< unescaped value of the current literal
};

const char *
Lexer::skipTrivia(const char *p, int &lines) const
{
    const char *end = _end;
    int newlines = 0;
    while (p != end) {
        char c = *p;
        if (c == '\n') {
            ++newlines;
            ++p;
        } else if (inClass(c, kSpace)) {
            ++p;
        } else if (c == '#' || (c == '/' && p + 1 != end && p[1] == '/')) {
            while (p != end && *p != '\n')
                ++p;
        } else {
            break;
        }
    }
    lines += newlines;
    return p;
}

void
Lexer::advance()
{
    const char *p = _cur;
    const char *end = _end;
    // Inline fast path: printed AIR separates most tokens by one space.
    if (p != end && *p == ' ')
        ++p;
    if (p != end && inClass(*p, kTrivia))
        p = skipTrivia(p, _line);
    _tok.line = _line;
    _tok.intValue = 0;
    if (p == end) {
        _cur = p;
        _tok.kind = Tok::Eof;
        _tok.text = {};
        return;
    }
    const char *start = p;
    char c = *p;
    if (inClass(c, kIdentStart)) {
        ++p;
        while (p != end && inClass(*p, kIdentChar))
            ++p;
        _tok.kind = Tok::Ident;
    } else if (inClass(c, kDigit) ||
               (c == '-' && p + 1 != end && inClass(p[1], kDigit))) {
        ++p;
        while (p != end && inClass(*p, kDigit))
            ++p;
        _tok.kind = Tok::Int;
        _tok.text = {start, static_cast<size_t>(p - start)};
        if (std::from_chars(start, p, _tok.intValue).ec != std::errc())
            fail(strCat("integer literal '", _tok.text, "' out of range"));
    } else if (c == '"') {
        _cur = p;
        lexString();
        return;
    } else if (inClass(c, kPunct)) {
        ++p;
        _tok.kind = Tok::Punct;
    } else {
        fail(strCat("unexpected character '", c, "'"));
    }
    _tok.text = {start, static_cast<size_t>(p - start)};
    _cur = p;
}

void
Lexer::lexString()
{
    const char *start = ++_cur; // past the opening quote
    const char *p = start;
    bool escaped = false;
    while (p != _end && *p != '"') {
        if (*p == '\\' && p + 1 != _end) {
            if (!escaped) {
                _escaped.assign(start, p);
                escaped = true;
            }
            ++p;
            _escaped += *p == 'n' ? '\n' : *p;
        } else {
            if (*p == '\n')
                ++_line;
            if (escaped)
                _escaped += *p;
        }
        ++p;
    }
    _cur = p;
    if (p == _end)
        fail("unterminated string literal");
    _tok.kind = Tok::Str;
    _tok.text = escaped ? std::string_view(_escaped)
                        : std::string_view(start, p - start);
    _cur = p + 1; // past the closing quote
}

/** Split "a.b.c" into ("a.b", "c"). */
std::pair<std::string_view, std::string_view>
splitLast(std::string_view dotted)
{
    size_t pos = dotted.rfind('.');
    if (pos == std::string_view::npos)
        return {{}, dotted};
    return {dotted.substr(0, pos), dotted.substr(pos + 1)};
}

/** Recursive-descent parser pulling tokens from the lexer. */
class Parser
{
  public:
    Parser(Module &module, Lexer &lexer) : _module(module), _lex(lexer) {}

    void run();

  private:
    const Token &peek() const { return _lex.peek(); }
    void next() { _lex.advance(); }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw ParseFail(msg, peek().line);
    }

    bool isPunct(char p) const
    {
        return peek().kind == Tok::Punct && peek().text[0] == p;
    }
    bool isIdent(std::string_view s) const
    {
        return peek().kind == Tok::Ident && peek().text == s;
    }
    void
    expectPunct(char p)
    {
        if (!isPunct(p))
            fail(strCat("expected '", p, "', got '", peek().text, "'"));
        next();
    }
    void
    expectIdent(std::string_view s)
    {
        if (!isIdent(s))
            fail(strCat("expected '", s, "', got '", peek().text, "'"));
        next();
    }
    /** The identifier's text, a view into the input. */
    std::string_view
    expectAnyIdent()
    {
        if (peek().kind != Tok::Ident)
            fail(strCat("expected identifier, got '", peek().text, "'"));
        std::string_view s = peek().text;
        next();
        return s;
    }
    int64_t
    expectInt()
    {
        if (peek().kind != Tok::Int)
            fail(strCat("expected integer, got '", peek().text, "'"));
        int64_t v = peek().intValue;
        next();
        return v;
    }
    /** An integer that must fit in `int`; `what` names it in errors. */
    int expectInt32(const char *what);

    /**
     * Dotted name: Ident ('.' Ident)*. The result views the input when
     * the parts are adjacent there (the printed form, one token) and
     * `_joined` otherwise, so it is valid only until the next call.
     */
    std::string_view parseDottedName();
    /** Dotted name with optional trailing "[]". */
    Type parseType();
    /** "rN" register token. */
    int parseReg();
    /** Dotted "Class.member" reference; `what` names it in errors. */
    std::pair<std::string_view, std::string_view>
    parseMemberRef(const char *what);

    void parseClass();
    void parseMethod(Klass *klass, bool is_static, bool is_abstract);
    void parseInstruction(Instruction &i);
    /** Body of an instruction that starts with "rD = ..."; `i.dst` is
     *  already set. */
    void parseAssignment(Instruction &i);
    int parseBranchTarget();

    Module &_module;
    Lexer &_lex;
    std::string _joined; //!< a dotted name split by whitespace/comments
    // Reused across methods and invokes, so the IR's vectors are
    // allocated once, at their final size.
    std::vector<Type> _types;
    std::vector<int> _regs;
};

int
Parser::expectInt32(const char *what)
{
    int64_t v = peek().intValue;
    if (peek().kind == Tok::Int &&
        (v < std::numeric_limits<int>::min() ||
         v > std::numeric_limits<int>::max()))
        fail(strCat(what, " '", peek().text, "' out of range"));
    return static_cast<int>(expectInt());
}

std::string_view
Parser::parseDottedName()
{
    if (peek().kind == Tok::Ident)
        _lex.joinDotted();
    std::string_view name = expectAnyIdent();
    if (!isPunct('.') || !_lex.identFollows())
        return name;
    // A name split by whitespace or comments: join it part by part.
    _joined.assign(name);
    while (isPunct('.') && _lex.identFollows()) {
        next();
        _joined += '.';
        _joined += expectAnyIdent();
    }
    return _joined;
}

Type
Parser::parseType()
{
    std::string_view name = parseDottedName();
    if (!isPunct('['))
        return Type::parse(name);
    next();
    expectPunct(']');
    return Type::array(name == "int" ? std::string() : std::string(name));
}

int
Parser::parseReg()
{
    std::string_view t = peek().text;
    if (peek().kind != Tok::Ident || t.size() < 2 || t[0] != 'r')
        fail(strCat("expected register, got '", t, "'"));
    for (size_t i = 1; i < t.size(); ++i) {
        if (!inClass(t[i], kDigit))
            fail(strCat("expected register, got '", t, "'"));
    }
    int reg = 0;
    if (std::from_chars(t.data() + 1, t.data() + t.size(), reg).ec !=
        std::errc())
        fail(strCat("register '", t, "' out of range"));
    next();
    return reg;
}

std::pair<std::string_view, std::string_view>
Parser::parseMemberRef(const char *what)
{
    auto ref = splitLast(parseDottedName());
    if (ref.first.empty())
        fail(strCat(what, " reference needs a class name"));
    return ref;
}

void
Parser::run()
{
    while (peek().kind != Tok::Eof)
        parseClass();
}

void
Parser::parseClass()
{
    bool is_interface = false;
    if (isIdent("interface")) {
        is_interface = true;
        next();
    } else {
        expectIdent("class");
    }
    std::string name(parseDottedName());
    std::string super;
    if (isIdent("extends")) {
        next();
        super = parseDottedName();
    }
    std::vector<std::string> ifaces;
    if (isIdent("implements")) {
        next();
        ifaces.emplace_back(parseDottedName());
        while (isPunct(',')) {
            next();
            ifaces.emplace_back(parseDottedName());
        }
    }
    if (_module.getClass(name))
        fail(strCat("duplicate class '", name, "'"));
    Klass *k = _module.addClass(std::move(name), std::move(super));
    k->setInterface(is_interface);
    for (auto &i : ifaces)
        k->addInterface(std::move(i));

    expectPunct('{');
    while (!isPunct('}')) {
        bool is_static = false;
        bool is_abstract = false;
        while (isIdent("static") || isIdent("abstract")) {
            if (isIdent("static"))
                is_static = true;
            else
                is_abstract = true;
            next();
        }
        if (isIdent("field")) {
            next();
            std::string_view fname = expectAnyIdent();
            expectPunct(':');
            Type ftype = parseType();
            k->addField({std::string(fname), std::move(ftype), is_static});
        } else if (isIdent("method")) {
            next();
            parseMethod(k, is_static, is_abstract);
        } else {
            fail(strCat("expected field or method, got '", peek().text,
                        "'"));
        }
    }
    expectPunct('}');
}

void
Parser::parseMethod(Klass *klass, bool is_static, bool is_abstract)
{
    std::string_view name_text = expectAnyIdent();
    expectPunct('(');
    _types.clear();
    while (!isPunct(')')) {
        expectAnyIdent(); // parameter name "pN" (documentary only)
        expectPunct(':');
        _types.push_back(parseType());
        if (isPunct(','))
            next();
    }
    expectPunct(')');
    std::vector<Type> params(std::make_move_iterator(_types.begin()),
                             std::make_move_iterator(_types.end()));
    expectPunct(':');
    Type ret = parseType();

    std::string name(name_text);
    if (klass->findMethod(name))
        fail(strCat("duplicate method '", klass->name(), ".", name, "'"));
    Method *m = klass->addMethod(std::move(name), std::move(params),
                                 std::move(ret), is_static);
    m->setAbstract(is_abstract);

    if (isPunct(';')) {
        next();
        return;
    }
    // "regs=N { instrs }"
    expectIdent("regs");
    expectPunct('=');
    m->setNumRegisters(expectInt32("register count"));
    expectPunct('{');
    while (!isPunct('}')) {
        // "@N:" index prefix; verified to be sequential.
        expectPunct('@');
        int64_t idx = expectInt();
        if (idx != m->numInstrs())
            fail(strCat("instruction index @", idx, " out of order"));
        expectPunct(':');
        parseInstruction(m->instrs().emplace_back());
    }
    expectPunct('}');
}

int
Parser::parseBranchTarget()
{
    expectPunct('@');
    return expectInt32("branch target");
}

void
Parser::parseInstruction(Instruction &i)
{
    if (peek().kind != Tok::Ident)
        fail(strCat("expected instruction, got '", peek().text, "'"));

    std::string_view w = peek().text;
    if (w == "nop") {
        next();
        i.op = Opcode::Nop;
    } else if (w == "return-void") {
        next();
        i.op = Opcode::ReturnVoid;
    } else if (w == "return") {
        next();
        i.op = Opcode::Return;
        i.srcs = {parseReg()};
    } else if (w == "throw") {
        next();
        i.op = Opcode::Throw;
        i.srcs = {parseReg()};
    } else if (w == "goto") {
        next();
        i.op = Opcode::Goto;
        i.target = parseBranchTarget();
    } else if (w == "if" || w == "ifz") {
        next();
        i.op = w == "if" ? Opcode::If : Opcode::IfZ;
        int lhs = parseReg();
        std::string_view cname = expectAnyIdent();
        if (!condFromName(cname, i.cond))
            fail(strCat("bad condition '", cname, "'"));
        if (i.op == Opcode::If)
            i.srcs = {lhs, parseReg()};
        else
            i.srcs = {lhs};
        expectIdent("goto");
        i.target = parseBranchTarget();
    } else if (w == "putfield") {
        next();
        i.op = Opcode::PutField;
        int obj = parseReg();
        expectPunct('.');
        auto [cls, fld] = parseMemberRef("field");
        i.field.className = cls;
        i.field.fieldName = fld;
        expectPunct('=');
        i.srcs = {obj, parseReg()};
    } else if (w == "putstatic") {
        next();
        i.op = Opcode::PutStatic;
        auto [cls, fld] = parseMemberRef("field");
        i.field.className = cls;
        i.field.fieldName = fld;
        expectPunct('=');
        i.srcs = {parseReg()};
    } else if (w == "monitor-enter") {
        next();
        i.op = Opcode::MonitorEnter;
        i.srcs = {parseReg()};
    } else if (w == "monitor-exit") {
        next();
        i.op = Opcode::MonitorExit;
        i.srcs = {parseReg()};
    } else if (w == "aput") {
        next();
        i.op = Opcode::ArrayPut;
        int arr = parseReg();
        expectPunct('[');
        int idx = parseReg();
        expectPunct(']');
        expectPunct('=');
        i.srcs = {arr, idx, parseReg()};
    } else if (w.substr(0, 7) == "invoke-") {
        // result-less invoke
        parseAssignment(i);
    } else {
        // Everything else starts with a destination register.
        i.dst = parseReg();
        expectPunct('=');
        parseAssignment(i);
    }
}

void
Parser::parseAssignment(Instruction &i)
{
    if (peek().kind != Tok::Ident)
        fail(strCat("expected instruction body, got '", peek().text, "'"));
    std::string_view w = peek().text;

    if (w == "const") {
        next();
        if (peek().kind == Tok::Int) {
            i.op = Opcode::ConstInt;
            i.intValue = peek().intValue;
        } else if (peek().kind == Tok::Str) {
            i.op = Opcode::ConstStr;
            i.strValue = peek().text;
        } else {
            fail("expected const payload");
        }
        next();
    } else if (w == "null") {
        next();
        i.op = Opcode::ConstNull;
    } else if (w == "new") {
        next();
        i.op = Opcode::New;
        i.typeName = parseDottedName();
    } else if (w == "new-array") {
        next();
        i.op = Opcode::NewArray;
        i.typeName = parseDottedName();
        expectPunct('[');
        i.srcs = {parseReg()};
        expectPunct(']');
    } else if (w == "getfield") {
        next();
        i.op = Opcode::GetField;
        i.srcs = {parseReg()};
        expectPunct('.');
        auto [cls, fld] = parseMemberRef("field");
        i.field.className = cls;
        i.field.fieldName = fld;
    } else if (w == "getstatic") {
        next();
        i.op = Opcode::GetStatic;
        auto [cls, fld] = parseMemberRef("field");
        i.field.className = cls;
        i.field.fieldName = fld;
    } else if (w == "aget") {
        next();
        i.op = Opcode::ArrayGet;
        int arr = parseReg();
        expectPunct('[');
        int idx = parseReg();
        expectPunct(']');
        i.srcs = {arr, idx};
    } else if (w.substr(0, 7) == "invoke-") {
        next();
        i.op = Opcode::Invoke;
        std::string_view kind_name = w.substr(7);
        if (!invokeKindFromName(kind_name, i.invokeKind))
            fail(strCat("bad invoke kind '", kind_name, "'"));
        auto [cls, mth] = parseMemberRef("method");
        i.method.className = cls;
        i.method.methodName = mth;
        expectPunct('(');
        _regs.clear();
        while (!isPunct(')')) {
            _regs.push_back(parseReg());
            if (isPunct(','))
                next();
        }
        expectPunct(')');
        i.srcs.assign(_regs.begin(), _regs.end());
        i.method.numArgs = static_cast<int>(i.srcs.size());
    } else if (binopFromName(w, i.binop)) {
        next();
        i.op = Opcode::BinOp;
        int lhs = parseReg();
        expectPunct(',');
        i.srcs = {lhs, parseReg()};
    } else if (unopFromName(w, i.unop)) {
        next();
        i.op = Opcode::UnOp;
        i.srcs = {parseReg()};
    } else if (w.size() >= 2 && w[0] == 'r' && inClass(w[1], kDigit)) {
        // Fallback: "rD = rS" move.
        i.op = Opcode::Move;
        i.srcs = {parseReg()};
    } else {
        fail(strCat("unknown instruction '", w, "'"));
    }
}

} // namespace

ParseStatus
parseInto(Module &module, std::string_view text)
{
    try {
        Lexer lexer(text);
        try {
            Parser(module, lexer).run();
        } catch (const LexFail &) {
            throw;
        } catch (const ParseFail &) {
            // The first lexical error anywhere in the input outranks a
            // parse error: drain() throws it if there is one.
            lexer.drain();
            throw;
        }
        return {};
    } catch (const ParseFail &e) {
        return {false, e.what(), e.line};
    }
}

ParseResult
parseModule(std::string_view text)
{
    ParseResult result;
    auto module = std::make_unique<Module>();
    result.status = parseInto(*module, text);
    if (result.status.ok)
        result.module = std::move(module);
    return result;
}

} // namespace sierra::air
