import ast, io, sys, tokenize
skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
total = 0
for path in sys.argv[1:]:
    src = open(path, encoding="utf-8").read()
    doc = set()  # lines of module, class and function docstrings
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    total += len({line for tok in tokenize.generate_tokens(io.StringIO(src).readline)
                  if tok.type not in skip
                  for line in range(tok.start[0], tok.end[0] + 1) if line not in doc})
print(total)
